package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"bce/internal/telemetry"
)

// fleet.go is the coordinator-side fleet monitor: a background poller
// that scrapes every worker's /readyz and /metrics (served on the
// worker API port) and aggregates the answers into one fleet view for
// the coordinator's debug endpoint. Purely observational — it shares
// no state with the sweep scheduler and its failure to reach a worker
// never affects job routing (the coordinator's own retry/reassignment
// logic owns that).

// FleetOptions configures a Fleet monitor.
type FleetOptions struct {
	// Workers is the list of worker base URLs, same as Options.Workers.
	Workers []string
	// Client issues the poll requests; nil means a 5s-timeout client
	// (polls must not hang behind a stuck worker).
	Client *http.Client
	// Interval is the poll period (default 2s).
	Interval time.Duration
	// Logger receives up/down transition records; nil means
	// slog.Default().
	Logger *slog.Logger
}

// WorkerHealth is one worker's last-polled state.
type WorkerHealth struct {
	// Up means the last /metrics scrape succeeded.
	Up bool `json:"up"`
	// Ready mirrors the worker's /readyz probe.
	Ready bool `json:"ready"`
	// JobsInFlight is the worker's busy simulation slots right now.
	JobsInFlight uint64 `json:"jobs_in_flight"`
	// Counters scraped from the worker's bce_dist / bce_result_cache
	// metrics.
	BatchesServed uint64 `json:"batches_served"`
	JobsReceived  uint64 `json:"jobs_received"`
	JobsOK        uint64 `json:"jobs_ok"`
	JobsFailed    uint64 `json:"jobs_failed"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	// JobsRetried and StoreQuarantined come from the worker's
	// bce_runner metrics: transient-failure retries inside the worker's
	// own pool, and result-store entries quarantined as undecodable.
	// Either climbing on one worker while the fleet stays flat is the
	// "sick host" signal.
	JobsRetried      uint64 `json:"jobs_retried"`
	StoreQuarantined uint64 `json:"store_quarantined"`
	// Bench is this worker's coordinator-side bench state ("active"
	// while it takes batches, "benched" while out of the rotation,
	// "probing" while a probe is in flight), empty when no bench source
	// is attached (fleet monitor running without a coordinator).
	Bench string `json:"bench,omitempty"`
	// Polls and Failures count this monitor's scrape attempts.
	Polls    uint64 `json:"polls"`
	Failures uint64 `json:"failures"`
}

// FleetSnapshot is the aggregated fleet view.
type FleetSnapshot struct {
	WorkersUp    int `json:"workers_up"`
	WorkersDown  int `json:"workers_down"`
	WorkersReady int `json:"workers_ready"`
	// JobsInFlight sums busy slots across reachable workers.
	JobsInFlight uint64 `json:"jobs_in_flight"`
	// PerWorker maps worker URL to its last-polled health.
	PerWorker map[string]WorkerHealth `json:"per_worker"`
}

// Fleet polls workers in the background. Start it with Start, read it
// with Snapshot, stop it by cancelling the context.
type Fleet struct {
	opts   FleetOptions
	client *http.Client
	log    *slog.Logger

	mu           sync.Mutex
	health       map[string]WorkerHealth
	benchRecords func() map[string]BenchRecord

	wg sync.WaitGroup
}

// SetBenchSource attaches a coordinator's bench/probe view
// (typically Coordinator.BenchRecords) so fleet snapshots carry each
// worker's bench state alongside its scraped health. Call before Start.
func (f *Fleet) SetBenchSource(src func() map[string]BenchRecord) {
	f.mu.Lock()
	f.benchRecords = src
	f.mu.Unlock()
}

// NewFleet builds a Fleet monitor.
func NewFleet(opts FleetOptions) *Fleet {
	f := &Fleet{opts: opts, client: opts.Client, log: opts.Logger,
		health: make(map[string]WorkerHealth, len(opts.Workers))}
	if f.client == nil {
		f.client = &http.Client{Timeout: 5 * time.Second}
	}
	if f.log == nil {
		f.log = slog.Default()
	}
	if f.opts.Interval <= 0 {
		f.opts.Interval = 2 * time.Second
	}
	for _, url := range opts.Workers {
		f.health[url] = WorkerHealth{}
	}
	return f
}

// Start launches the poll loop; it polls every worker immediately,
// then on each interval tick until ctx is cancelled. Call Wait to
// block until the loop has fully stopped.
func (f *Fleet) Start(ctx context.Context) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		ticker := time.NewTicker(f.opts.Interval)
		defer ticker.Stop()
		for {
			f.pollAll(ctx)
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
		}
	}()
}

// Wait blocks until the poll loop started by Start has exited.
func (f *Fleet) Wait() { f.wg.Wait() }

func (f *Fleet) pollAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, url := range f.opts.Workers {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			f.poll(ctx, url)
		}(url)
	}
	wg.Wait()
}

// poll scrapes one worker and folds the result into the health map.
func (f *Fleet) poll(ctx context.Context, url string) {
	h := WorkerHealth{}
	m, err := f.scrapeMetrics(ctx, url)
	if err == nil {
		h.Up = true
		h.JobsInFlight = uint64(m.Value("bce_runner_busy_workers"))
		h.BatchesServed = uint64(m.Value("bce_dist_batches_served"))
		h.JobsReceived = uint64(m.Value("bce_dist_jobs_received"))
		h.JobsOK = uint64(m.Value("bce_dist_jobs_ok"))
		h.JobsFailed = uint64(m.Value("bce_dist_jobs_failed"))
		h.CacheHits = uint64(m.Value("bce_result_cache_hits"))
		h.CacheMisses = uint64(m.Value("bce_result_cache_misses"))
		h.JobsRetried = uint64(m.Value("bce_runner_jobs_retried"))
		h.StoreQuarantined = uint64(m.Value("bce_runner_store_quarantined"))
		h.Ready = f.probeReady(ctx, url)
	}

	f.mu.Lock()
	prev := f.health[url]
	h.Polls = prev.Polls + 1
	h.Failures = prev.Failures
	if !h.Up {
		h.Failures++
	}
	f.health[url] = h
	f.mu.Unlock()

	if prev.Up != h.Up && prev.Polls > 0 {
		if h.Up {
			f.log.Info("fleet: worker back up", "url", url)
		} else {
			f.log.Warn("fleet: worker unreachable", "url", url, "err", err)
		}
	}
}

func (f *Fleet) scrapeMetrics(ctx context.Context, url string) (*telemetry.PromMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &httpStatusError{url: url, status: resp.StatusCode}
	}
	return telemetry.ParsePromText(resp.Body)
}

func (f *Fleet) probeReady(ctx context.Context, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

type httpStatusError struct {
	url    string
	status int
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("fleet: %s: HTTP %d", e.url, e.status)
}

// Snapshot returns the aggregated fleet view. The per-worker map is a
// copy; mutate freely.
func (f *Fleet) Snapshot() FleetSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	var records map[string]BenchRecord
	if f.benchRecords != nil {
		records = f.benchRecords()
	}
	snap := FleetSnapshot{PerWorker: make(map[string]WorkerHealth, len(f.health))}
	for url, h := range f.health {
		if bs, ok := records[url]; ok {
			h.Bench = bs.State
		}
		snap.PerWorker[url] = h
		if h.Up {
			snap.WorkersUp++
			snap.JobsInFlight += h.JobsInFlight
		} else {
			snap.WorkersDown++
		}
		if h.Ready {
			snap.WorkersReady++
		}
	}
	return snap
}

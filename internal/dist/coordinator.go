package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"bce/internal/core"
	"bce/internal/metrics"
	"bce/internal/runner"
	"bce/internal/telemetry"
)

// Options configures a Coordinator.
type Options struct {
	// Workers is the list of worker base URLs (e.g.
	// "http://127.0.0.1:8371"). Required, at least one.
	Workers []string
	// Client issues the HTTP requests; nil means a default client with
	// no global timeout (batches legitimately run for minutes — the
	// per-job deadline and the Run context bound them instead).
	Client *http.Client
	// BatchSize is the number of jobs per request (default 8). Smaller
	// batches rebalance better when workers are uneven; larger ones
	// amortize request overhead.
	BatchSize int
	// JobTimeout bounds each job's execution on the worker; zero means
	// none. Expiry is a transient failure (runner.Transient semantics):
	// the job goes back on the queue for any worker to pull.
	JobTimeout time.Duration
	// Retries is how many times a failed batch request is retried in
	// place against the same worker before the batch goes back on the
	// queue and the worker is benched (default 2). RetryBackoff is the
	// initial backoff, doubled per retry (default 250ms); a benched
	// worker's first probe waits 4× RetryBackoff, doubled per failed
	// probe.
	Retries      int
	RetryBackoff time.Duration
	// DisableHedging turns off tail re-leasing. Hedging is on by
	// default: once the queue is empty, an idle worker re-leases the
	// oldest batch still in flight on another worker (each batch at
	// most once), the first valid reply wins, and the loser is
	// cancelled. Exactly-once merging makes the duplicate execution
	// invisible.
	DisableHedging bool
	// OnResult is called once per successful job with the worker's name
	// and the result. Workers execute concurrently, so OnResult must be
	// safe for concurrent use. The coordinator guarantees exactly one
	// call per job key, however often the job was re-executed by
	// requeueing or re-leasing. Required.
	OnResult func(worker string, job Job, run metrics.Run)
	// Logger receives structured progress and rebalancing records
	// (benching, probing, re-leasing, requeueing, retries). Nil means
	// slog.Default(); records inside the sweep trace carry trace_id.
	Logger *slog.Logger
	// Tracer, when set, opens a sweep-level trace: one root span, one
	// span per shard, one per batch lease, merged with the spans
	// workers ship back. Nil disables tracing (zero overhead).
	Tracer *telemetry.Tracer
}

// probeBudget is how many consecutive failed probes declare a benched
// worker permanently lost.
const probeBudget = 6

// releaseAge is how long a batch must have been in flight before an
// idle worker may re-lease it: long enough that a reply merely in
// transit, or a worker's cold first request, is not raced; short next
// to a real batch of simulations.
const releaseAge = 100 * time.Millisecond

// errLostRace reports a valid reply for a batch whose other lease
// already merged: the loser of a tail re-lease. Not a worker fault.
var errLostRace = errors.New("dist: batch already merged by another lease")

// Coordinator runs a planned job space on worker processes and merges
// the results. The batches sit on one shared queue; one loop per
// worker pulls the next batch whenever its worker is idle, so fast
// workers take more of the sweep than slow ones. Failure policy:
// transport errors and worker-reported transient failures are retried
// — first in place with backoff, then by putting the batch back on the
// queue and benching the worker — while deterministic job failures
// (validation, key-recompute mismatch, simulation error) abort the
// sweep, because they would fail identically everywhere. A benched
// worker is probed on a doubling cooldown and re-admitted when a probe
// passes; a worker whose probe budget runs dry is permanently lost.
// Once the queue is empty, idle workers re-lease batches still in
// flight elsewhere (unless hedging is disabled), so a straggler cannot
// hold the sweep's tail. A sweep completes when every job has merged
// or errors when jobs remain and no worker can take them.
type Coordinator struct {
	opts        Options
	client      *http.Client
	log         *slog.Logger
	maxAttempts int

	// healthMu guards health, one bench/probe record per worker: only
	// that worker's loop (and Ping, before a sweep) writes it.
	healthMu sync.Mutex
	health   []BenchRecord

	// mu guards the sweep's queue state and every task's lease fields.
	mu       sync.Mutex
	firstErr error
	ready    []*task       // batches waiting for a worker, FIFO
	inflight []*task       // leased, unmerged batches, oldest lease first
	pending  int           // tasks not yet retired
	alive    int           // worker loops not permanently lost
	changed  chan struct{} // closed and replaced whenever the queue changes
	cancel   context.CancelFunc

	// merged is the exactly-once merge guard: job keys whose result has
	// been handed to OnResult.
	mergedMu sync.Mutex
	merged   map[string]struct{}

	// Sweep trace state (nil/empty when Options.Tracer is nil).
	sweepSpan *telemetry.Span
	shards    []*shardTrace

	// statsMu guards stats: telemetry histograms are unsynchronized by
	// design, and batch completions observe from many worker loops.
	statsMu sync.Mutex
	stats   *telemetry.Registry
}

// shardTrace tracks one shard's span and how many of its tasks are
// still outstanding; the last task to finish ends the span, whichever
// worker pulled it.
type shardTrace struct {
	span    *telemetry.Span
	pending int // guarded by Coordinator.mu
}

// task is one batch plus its delivery state. Attempts increment every
// time the batch goes back on the queue; a task exceeding the
// coordinator's attempt budget aborts the sweep rather than cycling
// forever. The lease fields are guarded by Coordinator.mu.
type task struct {
	batch    Batch
	attempts int
	leases   []*lease  // live leases: one, or two once re-leased
	leasedAt time.Time // when the batch last left the queue
	released bool      // re-leased already (at most once per batch)
	done     bool      // a reply has been claimed for merging
}

// lease is one worker's claim on a task. Its context is cancelled when
// another lease's reply wins.
type lease struct {
	task   *task
	worker int
	hedge  bool
	ctx    context.Context
	cancel context.CancelFunc
}

// BenchRecord is one worker's bench/probe record for stats and
// fleet views. State is "active" while the worker takes batches,
// "benched" while it is out of the rotation, and "probing" while a
// probe decides its re-admission.
type BenchRecord struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Benchings           uint64 `json:"benchings"`
	Probes              uint64 `json:"probes"`
	Readmissions        uint64 `json:"readmissions"`
	ProbeFailures       int    `json:"probe_failures"`
}

// NewCoordinator validates opts and builds a Coordinator.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("dist: coordinator needs at least one worker URL")
	}
	for _, w := range opts.Workers {
		if w == "" {
			return nil, errors.New("dist: empty worker URL")
		}
	}
	if opts.OnResult == nil {
		return nil, errors.New("dist: coordinator needs an OnResult sink")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 8
	}
	if opts.Retries <= 0 {
		opts.Retries = 2
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 250 * time.Millisecond
	}
	c := &Coordinator{
		opts:   opts,
		client: opts.Client,
		log:    opts.Logger,
		stats:  telemetry.NewRegistry(),
		// In-place retries per visit, times one visit per worker per
		// probe cycle: finite under total loss, roomy under repeated
		// bench/re-admit flapping.
		maxAttempts: (opts.Retries + 2) * len(opts.Workers) * (probeBudget + 1),
		health:      make([]BenchRecord, len(opts.Workers)),
	}
	for i := range c.health {
		c.health[i].State = "active"
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.log == nil {
		c.log = slog.Default()
	}
	return c, nil
}

// Stats snapshots the coordinator's sweep statistics (global, per-shard
// and per-worker batch latency histograms, in milliseconds). Safe
// during a running sweep.
func (c *Coordinator) Stats() telemetry.Snapshot {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats.Snapshot()
}

// BenchRecords snapshots every worker's bench/probe record, keyed by
// worker URL. Safe during a running sweep; the fleet monitor decorates
// its health view with this.
func (c *Coordinator) BenchRecords() map[string]BenchRecord {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	out := make(map[string]BenchRecord, len(c.health))
	for i, s := range c.health {
		out[c.opts.Workers[i]] = s
	}
	return out
}

// updateHealth applies f to worker wi's record under its lock.
func (c *Coordinator) updateHealth(wi int, f func(*BenchRecord)) {
	c.healthMu.Lock()
	f(&c.health[wi])
	c.healthMu.Unlock()
}

// bench takes worker wi out of the rotation until a probe re-admits it.
func (c *Coordinator) bench(ctx context.Context, wi int, reason string) {
	c.updateHealth(wi, func(s *BenchRecord) {
		s.State = "benched"
		s.Benchings++
	})
	live.workerBenchings.Add(1)
	live.workersLost.Add(1)
	c.log.WarnContext(telemetry.ContextWithSpan(ctx, c.sweepSpan),
		"worker lost; benched until a probe passes", "url", c.opts.Workers[wi], "reason", reason)
}

// benched reports whether worker wi is out of the rotation.
func (c *Coordinator) benched(wi int) bool {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	return c.health[wi].State != "active"
}

// observeBatch records one completed batch request's latency under the
// global, per-shard, and per-worker histograms.
func (c *Coordinator) observeBatch(shard, wi int, d time.Duration) {
	ms := uint64(d.Milliseconds())
	c.statsMu.Lock()
	c.stats.Histogram("batch_ms").Observe(ms)
	c.stats.Histogram(fmt.Sprintf("shard%d.batch_ms", shard)).Observe(ms)
	c.stats.Histogram(fmt.Sprintf("worker%d.batch_ms", wi)).Observe(ms)
	c.statsMu.Unlock()
}

// Ping checks every worker for liveness and schema agreement. Callers
// run it before a sweep so misconfiguration fails in milliseconds, not
// after the plan executes. Schema disagreement on any worker aborts —
// that is a build mismatch no amount of retrying fixes. A worker that
// is merely unreachable (partition, restart, flaky path) is benched
// instead, so the sweep starts without it and its probes re-admit it
// when its network heals; only when every worker is unreachable does
// Ping fail.
func (c *Coordinator) Ping(ctx context.Context) error {
	var firstErr error
	reachable := 0
	for i, w := range c.opts.Workers {
		err := c.pingOne(ctx, w)
		switch {
		case err == nil:
			reachable++
		case errors.Is(err, ErrSchema):
			return err
		default:
			if firstErr == nil {
				firstErr = err
			}
			if !c.benched(i) {
				c.bench(ctx, i, "unreachable at startup: "+err.Error())
			}
		}
	}
	if reachable == 0 {
		return firstErr
	}
	return nil
}

// pingOne checks one worker for liveness and schema agreement. It
// doubles as a benched worker's probe: cheap, side-effect free,
// and it exercises the same HTTP path a batch would.
func (c *Coordinator) pingOne(ctx context.Context, w string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w+PathPing, nil)
	if err != nil {
		return fmt.Errorf("dist: ping %s: %w", w, err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("dist: ping %s: %w", w, err)
	}
	body, rerr := readAllLimited(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return fmt.Errorf("dist: ping %s: %w", w, rerr)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: ping %s: HTTP %d: %s", w, resp.StatusCode, bytes.TrimSpace(body))
	}
	var reply struct {
		Schema int    `json:"schema"`
		Worker string `json:"worker"`
	}
	if err := decodeStrict(body, &reply); err != nil {
		return fmt.Errorf("dist: ping %s: %w", w, err)
	}
	if reply.Schema != SchemaVersion {
		return fmt.Errorf("dist: ping %s (%s): %w: worker speaks %d, this build speaks %d",
			w, reply.Worker, ErrSchema, reply.Schema, SchemaVersion)
	}
	return nil
}

// Run executes the planned jobs across the workers. jobs and keys are
// parallel slices, sorted by key (core.CollectJobs guarantees this),
// which makes the batches deterministic: job i goes to shard
// i mod len(Workers), and each shard is cut into BatchSize batches in
// order. The queue interleaves the shards (every shard's first batch,
// then every shard's second, ...). Run returns once every job has been
// merged through OnResult, or with the first deterministic failure, or
// when undeliverable work remains.
func (c *Coordinator) Run(ctx context.Context, jobs []core.JobSpec, keys []string) error {
	if len(jobs) != len(keys) {
		return fmt.Errorf("dist: %d jobs with %d keys", len(jobs), len(keys))
	}
	if len(jobs) == 0 {
		return nil
	}
	nw := len(c.opts.Workers)
	shards := make([][]Job, nw)
	for i := range jobs {
		shards[i%nw] = append(shards[i%nw], Job{Key: keys[i], Spec: jobs[i]})
	}
	var ready []*task
	perShard := make([]int, nw)
	for seq, cut := 0, true; cut; seq++ {
		cut = false
		for si, shard := range shards {
			lo := seq * c.opts.BatchSize
			if lo >= len(shard) {
				continue
			}
			ready = append(ready, &task{batch: Batch{
				Schema:       SchemaVersion,
				Shard:        si,
				Seq:          seq,
				JobTimeoutMS: c.opts.JobTimeout.Milliseconds(),
				Jobs:         shard[lo:min(lo+c.opts.BatchSize, len(shard))],
			}})
			perShard[si]++
			cut = true
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.mu.Lock()
	c.cancel = cancel
	c.firstErr = nil
	c.ready, c.inflight = ready, nil
	c.pending = len(ready)
	c.alive = nw
	c.changed = make(chan struct{})
	// Every healthy worker starts on a batch of its own, so a loop
	// scheduled late still gets a share; after that, whichever worker
	// is idle pulls the next batch.
	first := make([]*lease, nw)
	for wi := range first {
		if len(c.ready) > 0 && !c.benched(wi) {
			first[wi] = c.takeLocked(runCtx, wi)
		}
	}
	c.mu.Unlock()
	c.mergedMu.Lock()
	c.merged = make(map[string]struct{}, len(jobs))
	c.mergedMu.Unlock()
	live.jobsDispatched.Add(uint64(len(jobs)))

	// Open the sweep trace: a root span plus one span per shard. Shard
	// spans end when their last task retires, and any span still open
	// when Run returns (abort paths) is closed below; End is idempotent.
	if tr := c.opts.Tracer; tr != nil {
		c.sweepSpan = tr.StartTrace("sweep")
		c.sweepSpan.SetAttr("jobs", fmt.Sprint(len(jobs)))
		c.sweepSpan.SetAttr("workers", fmt.Sprint(nw))
		c.shards = make([]*shardTrace, nw)
		for si := range c.shards {
			st := &shardTrace{span: tr.StartSpan("shard", c.sweepSpan.Context()), pending: perShard[si]}
			st.span.SetAttr("shard", fmt.Sprint(si))
			if st.pending == 0 {
				st.span.End()
			}
			c.shards[si] = st
		}
		defer func() {
			for _, st := range c.shards {
				st.span.End()
			}
			c.sweepSpan.End()
			c.shards, c.sweepSpan = nil, nil
		}()
	}

	var wg sync.WaitGroup
	for wi := range c.opts.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.workerLoop(runCtx, wi, first[wi])
		}()
	}
	wg.Wait()

	c.mu.Lock()
	err, pending := c.firstErr, c.pending
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if pending != 0 {
		return fmt.Errorf("dist: %d batches undelivered: every worker failed", pending)
	}
	return nil
}

// abort records the sweep's first fatal error and cancels everything.
func (c *Coordinator) abort(err error) {
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
	c.cancel()
}

// wakeLocked tells every waiting worker loop the queue changed.
func (c *Coordinator) wakeLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// workerLoop drives one worker: it runs its first lease, if any, then
// pulls leases until the sweep ends. A lease that fails transiently
// after its in-place retries benches the worker; the loop then probes
// it on a doubling cooldown and resumes pulling once a probe passes, or
// gives the worker up when the probe budget runs dry. The last loop to
// give up with work still pending aborts the sweep.
func (c *Coordinator) workerLoop(ctx context.Context, wi int, l *lease) {
	for {
		if l == nil {
			if c.benched(wi) && !c.probeUntilHealthy(ctx, wi) {
				return
			}
			if l = c.next(ctx, wi); l == nil {
				return
			}
		}
		if err := c.handle(l); err != nil {
			c.bench(ctx, wi, err.Error())
		}
		l = nil
	}
}

// next blocks until worker wi can take a lease: the head of the queue
// or, once the queue is empty and hedging is on, the oldest batch in
// flight for at least releaseAge and not yet re-leased. An idle worker
// holds no lease, so that batch is always on another worker. It
// returns nil when the sweep is over.
func (c *Coordinator) next(ctx context.Context, wi int) *lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ctx.Err() == nil {
		if len(c.ready) > 0 {
			return c.takeLocked(ctx, wi)
		}
		var ripe <-chan time.Time
		if !c.opts.DisableHedging {
			for _, t := range c.inflight {
				if t.released || t.done {
					continue
				}
				if wait := releaseAge - time.Since(t.leasedAt); wait > 0 {
					ripe = time.After(wait)
					break
				}
				t.released = true
				return c.leaseLocked(ctx, t, wi, true)
			}
		}
		changed := c.changed
		c.mu.Unlock()
		select {
		case <-ctx.Done():
		case <-changed:
		case <-ripe:
		}
		c.mu.Lock()
	}
	return nil
}

// takeLocked leases the head of the queue to worker wi.
func (c *Coordinator) takeLocked(ctx context.Context, wi int) *lease {
	t := c.ready[0]
	c.ready = c.ready[1:]
	t.leasedAt = time.Now()
	c.inflight = append(c.inflight, t)
	if !c.opts.DisableHedging {
		c.wakeLocked() // a new re-lease candidate for idle loops
	}
	return c.leaseLocked(ctx, t, wi, false)
}

func (c *Coordinator) leaseLocked(ctx context.Context, t *task, wi int, hedge bool) *lease {
	l := &lease{task: t, worker: wi, hedge: hedge}
	l.ctx, l.cancel = context.WithCancel(ctx)
	t.leases = append(t.leases, l)
	return l
}

// dropLeaseLocked removes l from its task's live leases and releases its
// context.
func (c *Coordinator) dropLeaseLocked(l *lease) {
	t := l.task
	l.cancel()
	for i, x := range t.leases {
		if x == l {
			t.leases = append(t.leases[:i], t.leases[i+1:]...)
			break
		}
	}
	if len(t.leases) == 0 {
		for i, x := range c.inflight {
			if x == t {
				c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
				break
			}
		}
	}
}

// handle runs one lease to completion. It returns a non-nil error when
// the worker must be benched; fatal errors abort the whole sweep and
// return nil so the loop winds down via context cancellation.
func (c *Coordinator) handle(l *lease) error {
	requeueJobs, err := c.runLease(l)
	switch {
	case err == nil:
		c.retire(l, requeueJobs)
		return nil
	case errors.Is(err, errLostRace) || l.ctx.Err() != nil:
		// The other lease won, or the sweep is being torn down: not a
		// worker problem.
		c.release(l, false)
		return nil
	case runner.IsTransient(err):
		c.release(l, true)
		return err
	default:
		c.release(l, false)
		c.abort(err)
		return nil
	}
}

// retire completes a task whose reply l merged: it cancels any other
// lease, queues the reply's transient job failures as a fresh task,
// and ends the sweep when nothing is left pending.
func (c *Coordinator) retire(l *lease, requeueJobs []Job) {
	t := l.task
	c.mu.Lock()
	for len(t.leases) > 0 {
		c.dropLeaseLocked(t.leases[0]) // cancels the loser, if any
	}
	if t.released {
		if l.hedge {
			live.hedgeWins.Add(1)
		} else {
			live.hedgeLosses.Add(1)
		}
	}
	st := c.shardFor(t)
	requeued := false
	if len(requeueJobs) > 0 {
		// Worker-side transient failures (per-job deadline expiry): the
		// survivors become a fresh task on the same shard.
		nt := &task{batch: t.batch, attempts: t.attempts}
		nt.batch.Jobs = requeueJobs
		c.pending++
		if st != nil {
			st.pending++
		}
		requeued = c.requeueLocked(nt)
	}
	if st != nil {
		if st.pending--; st.pending == 0 {
			st.span.End()
		}
	}
	if c.pending--; c.pending == 0 {
		c.cancel()
	}
	c.wakeLocked()
	c.mu.Unlock()
	if requeued {
		c.log.InfoContext(telemetry.ContextWithSpan(l.ctx, c.sweepSpan), "transient job failures requeued",
			"jobs", len(requeueJobs), "url", c.opts.Workers[l.worker])
	}
}

// release drops a lease that produced no merge. When requeue is set
// and it was the task's last live lease, the task goes back on the
// queue for any worker to pull.
func (c *Coordinator) release(l *lease, requeue bool) {
	t := l.task
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLeaseLocked(l)
	if requeue && len(t.leases) == 0 && !t.done {
		c.requeueLocked(t)
	}
}

// requeueLocked puts a task back on the queue and reports whether it
// did; a task whose attempt budget is spent aborts the sweep instead.
func (c *Coordinator) requeueLocked(t *task) bool {
	t.attempts++
	if t.attempts > c.maxAttempts {
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("dist: shard %d batch %d undeliverable after %d attempts",
				t.batch.Shard, t.batch.Seq, t.attempts)
		}
		c.cancel()
		return false
	}
	c.ready = append(c.ready, t)
	live.jobsRequeued.Add(uint64(len(t.batch.Jobs)))
	c.wakeLocked()
	return true
}

// shardFor returns the trace bookkeeping for a task's shard (nil when
// tracing is off).
func (c *Coordinator) shardFor(t *task) *shardTrace {
	if t.batch.Shard < len(c.shards) {
		return c.shards[t.batch.Shard]
	}
	return nil
}

// probeUntilHealthy probes benched worker wi on a doubling, jittered
// cooldown until a probe passes (true), the probe budget is spent, or the sweep
// ends (false).
func (c *Coordinator) probeUntilHealthy(ctx context.Context, wi int) bool {
	url := c.opts.Workers[wi]
	for fails := 0; fails < probeBudget; fails++ {
		// Up to 50% jitter keeps the doubling cooldown from probing in
		// lockstep with a periodic fault (a partition every second).
		wait := 4 * c.opts.RetryBackoff << fails
		select {
		case <-ctx.Done():
			return false
		case <-time.After(wait + rand.N(wait/2)):
		}
		c.updateHealth(wi, func(s *BenchRecord) {
			s.State = "probing"
			s.Probes++
		})
		live.workerProbes.Add(1)
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := c.pingOne(pctx, url)
		cancel()
		if err == nil {
			c.updateHealth(wi, func(s *BenchRecord) {
				*s = BenchRecord{State: "active", Benchings: s.Benchings, Probes: s.Probes, Readmissions: s.Readmissions + 1}
			})
			live.workerReadmits.Add(1)
			c.log.InfoContext(telemetry.ContextWithSpan(ctx, c.sweepSpan),
				"worker re-admitted after successful probe", "url", url)
			return true
		}
		c.updateHealth(wi, func(s *BenchRecord) {
			s.State = "benched"
			s.ProbeFailures++
		})
		if ctx.Err() != nil {
			return false
		}
	}
	c.log.ErrorContext(telemetry.ContextWithSpan(ctx, c.sweepSpan),
		"worker permanently lost: probe budget exhausted", "url", url)
	c.mu.Lock()
	c.alive--
	if c.alive == 0 && c.pending > 0 && c.firstErr == nil {
		c.firstErr = errors.New("dist: all workers failed")
		c.cancel()
	}
	c.mu.Unlock()
	return false
}

// runLease delivers one leased batch to its worker, with in-place
// retries, and merges the reply if it is the batch's first valid one.
// Deterministic failures — malformed batch (HTTP 400 from the worker),
// schema skew, a job error the worker marked permanent — come back as
// non-transient errors.
func (c *Coordinator) runLease(l *lease) ([]Job, error) {
	t, wi := l.task, l.worker
	payload, err := EncodeBatch(t.batch)
	if err != nil {
		return nil, fmt.Errorf("dist: encode batch: %w", err)
	}
	url := c.opts.Workers[wi]
	// One batch span covers the lease, in-place retries included; its
	// context rides the request headers so the worker's spans become
	// its children.
	var parent telemetry.SpanContext
	if st := c.shardFor(t); st != nil {
		parent = st.span.Context()
	}
	span := c.opts.Tracer.StartSpan("batch", parent)
	span.SetAttr("shard", fmt.Sprint(t.batch.Shard))
	span.SetAttr("seq", fmt.Sprint(t.batch.Seq))
	span.SetAttr("jobs", fmt.Sprint(len(t.batch.Jobs)))
	span.SetAttr("url", url)
	span.SetAttr("deadline_ms", fmt.Sprint(t.batch.JobTimeoutMS))
	defer span.End()
	if l.hedge {
		live.hedgesIssued.Add(1)
		span.SetAttr("hedged", "true")
		c.log.InfoContext(telemetry.ContextWithSpan(l.ctx, span), "re-leasing in-flight batch to idle worker",
			"shard", t.batch.Shard, "seq", t.batch.Seq, "url", url)
	}
	reply, err := c.postRetry(l.ctx, wi, url, payload, span, t.batch.Shard)
	if err != nil {
		return nil, err
	}
	return c.merge(t, reply)
}

// postRetry POSTs one batch to one worker, retrying transient
// transport failures in place with capped exponential backoff.
func (c *Coordinator) postRetry(ctx context.Context, wi int, url string, payload []byte, span *telemetry.Span, shard int) (BatchResult, error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			live.batchRetries.Add(1)
			span.SetAttr("retries", fmt.Sprint(attempt))
			select {
			case <-ctx.Done():
				return BatchResult{}, ctx.Err()
			case <-time.After(runner.Backoff{Initial: c.opts.RetryBackoff}.Delay(attempt - 1)):
			}
		}
		start := time.Now()
		reply, err := c.post(ctx, url, payload, span.Context())
		if err == nil {
			c.observeBatch(shard, wi, time.Since(start))
			c.updateHealth(wi, func(s *BenchRecord) { s.ConsecutiveFailures = 0 })
			return reply, nil
		}
		if !runner.IsTransient(err) || ctx.Err() != nil {
			return BatchResult{}, err
		}
		lastErr = err
		c.updateHealth(wi, func(s *BenchRecord) { s.ConsecutiveFailures++ })
		c.log.WarnContext(telemetry.ContextWithSpan(ctx, span), "batch attempt failed",
			"url", url, "attempt", attempt+1, "attempts", c.opts.Retries+1, "err", err)
	}
	return BatchResult{}, lastErr
}

// post sends one batch request and decodes the reply, classifying
// failures: transport errors, 5xx, digest mismatches (HTTP 409 from
// the worker, or a corrupted reply detected here) are transient, while
// a 4xx whose reply carries an intact digest — proof the worker itself
// produced it — is deterministic. A 4xx without a digest could be the
// HTTP server machinery answering a request corrupted in transit, so
// it is retried too.
func (c *Coordinator) post(ctx context.Context, url string, payload []byte, sc telemetry.SpanContext) (BatchResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+PathExec, bytes.NewReader(payload))
	if err != nil {
		return BatchResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderDigest, ContentDigest(payload))
	if sc.Valid() {
		req.Header.Set(HeaderTraceID, sc.TraceID)
		req.Header.Set(HeaderSpanID, sc.SpanID)
	}
	live.batchesSent.Add(1)
	resp, err := c.client.Do(req)
	if err != nil {
		return BatchResult{}, runner.Transient(err)
	}
	defer resp.Body.Close()
	body, err := readAllLimited(resp.Body)
	if err != nil {
		return BatchResult{}, runner.Transient(err)
	}
	digest := resp.Header.Get(HeaderDigest)
	if digest != "" && digest != ContentDigest(body) {
		return BatchResult{}, runner.Transient(fmt.Errorf("dist: %s: reply corrupted in transit (content digest mismatch)", url))
	}
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusConflict:
		// The worker detected our request was corrupted in transit.
		return BatchResult{}, runner.Transient(fmt.Errorf("dist: %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body)))
	case resp.StatusCode >= 500:
		return BatchResult{}, runner.Transient(fmt.Errorf("dist: %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body)))
	case digest != "":
		// 4xx with an intact digest: the worker understood us and said
		// no — deterministic.
		return BatchResult{}, fmt.Errorf("dist: %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	default:
		// 4xx without a digest: possibly the server machinery rejecting
		// a request mangled by the network, not our handler. Retry.
		return BatchResult{}, runner.Transient(fmt.Errorf("dist: %s: HTTP %d (no content digest): %s", url, resp.StatusCode, bytes.TrimSpace(body)))
	}
	reply, err := DecodeBatchResult(body)
	if err != nil {
		if errors.Is(err, ErrSchema) {
			return BatchResult{}, err
		}
		// A garbled reply body could be a proxy or truncation artifact;
		// let the in-place retry take another look.
		return BatchResult{}, runner.Transient(err)
	}
	return reply, nil
}

// merge folds a worker's reply into the sweep: successes through
// OnResult, transient job failures into the requeue list, permanent
// job failures into a fatal error. The whole reply is validated before
// anything merges — a replies-then-fails-midway path would otherwise
// merge part of a batch, requeue it, and merge the rest twice — and
// only the first valid reply for a task merges; a later one (the loser
// of a re-lease) returns errLostRace. The merged-key guard keeps every
// job's merge exactly-once on top of that.
func (c *Coordinator) merge(t *task, reply BatchResult) ([]Job, error) {
	byKey := make(map[string]Job, len(t.batch.Jobs))
	for _, j := range t.batch.Jobs {
		byKey[j.Key] = j
	}
	if len(reply.Results) != len(t.batch.Jobs) {
		return nil, runner.Transient(fmt.Errorf("dist: worker %q answered %d of %d jobs",
			reply.Worker, len(reply.Results), len(t.batch.Jobs)))
	}
	for _, jr := range reply.Results {
		if _, ok := byKey[jr.Key]; !ok {
			return nil, runner.Transient(fmt.Errorf("dist: worker %q answered unknown key %q", reply.Worker, jr.Key))
		}
	}
	c.mu.Lock()
	lost := t.done
	t.done = true
	c.mu.Unlock()
	if lost {
		return nil, errLostRace
	}
	// Worker spans merge into the sweep's tracer regardless of job
	// outcomes — a failed batch's timing is exactly what a trace is for.
	c.opts.Tracer.Import(reply.Spans)
	var requeue []Job
	for _, jr := range reply.Results {
		job := byKey[jr.Key]
		switch {
		case jr.Run != nil:
			c.mergeOnce(reply.Worker, job, *jr.Run)
		case jr.Transient:
			requeue = append(requeue, job)
		default:
			return nil, fmt.Errorf("dist: job %s failed on worker %q: %s", jr.Key, reply.Worker, jr.Err)
		}
	}
	return requeue, nil
}

// mergeOnce hands one job result to OnResult unless the key already
// merged, keeping manifest recording at exactly one record per job.
func (c *Coordinator) mergeOnce(worker string, job Job, run metrics.Run) {
	c.mergedMu.Lock()
	if _, dup := c.merged[job.Key]; dup {
		c.mergedMu.Unlock()
		live.dupsSuppressed.Add(1)
		return
	}
	c.merged[job.Key] = struct{}{}
	c.mergedMu.Unlock()
	c.opts.OnResult(worker, job, run)
	live.jobsMerged.Add(1)
}

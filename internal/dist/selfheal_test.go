package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bce/internal/core"
	"bce/internal/metrics"
	"bce/internal/telemetry"
)

// selfheal_test.go covers the coordinator's self-healing machinery:
// benching a failing worker with probing and re-admission, tail
// re-leasing, load balance through the pull queue, exactly-once
// merging under partial/duplicated replies, and concurrent
// observability reads.

// slowExec wraps stubExec with a fixed per-job delay, stretching a
// sweep so background machinery (probes, re-leases) has time to act.
func slowExec(d time.Duration) func(context.Context, core.JobSpec) (metrics.Run, error) {
	return func(ctx context.Context, j core.JobSpec) (metrics.Run, error) {
		select {
		case <-ctx.Done():
			return metrics.Run{}, ctx.Err()
		case <-time.After(d):
		}
		return stubExec(ctx, j)
	}
}

// tamperExecOnce wraps a worker handler, rewriting the first
// successful exec reply with tamper and restamping the content digest
// so only the tampered payload itself — not transport corruption — is
// what the coordinator sees.
func tamperExecOnce(inner http.Handler, tamper func([]byte) []byte) http.Handler {
	var done atomic.Bool
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != PathExec || done.Load() {
			inner.ServeHTTP(rw, req)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && !done.Swap(true) {
			body = tamper(body)
		}
		for k, vs := range rec.Header() {
			if k == HeaderDigest {
				continue
			}
			for _, v := range vs {
				rw.Header().Add(k, v)
			}
		}
		rw.Header().Set(HeaderDigest, ContentDigest(body))
		rw.WriteHeader(rec.Code)
		rw.Write(body) //nolint:errcheck // test server
	})
}

// TestCoordinatorRejectsPartialReplyWithoutMerging is the duplicate-
// merge regression test: a reply whose final entry names an unknown key
// must be rejected wholesale BEFORE any of its valid entries reach
// OnResult. The old behavior merged the valid prefix, requeued the
// batch, and merged those jobs a second time on the healthy worker.
func TestCoordinatorRejectsPartialReplyWithoutMerging(t *testing.T) {
	ResetStats()
	poison := func(body []byte) []byte {
		var r BatchResult
		if err := json.Unmarshal(body, &r); err != nil || len(r.Results) == 0 {
			return body
		}
		r.Results[len(r.Results)-1].Key = "bogus-key-never-planned"
		out, err := EncodeBatchResult(r)
		if err != nil {
			return body
		}
		return out
	}
	w1 := httptest.NewServer(tamperExecOnce(
		NewWorker(WorkerOptions{Name: "w1", Exec: stubExec}).Handler(), poison))
	defer w1.Close()
	w2 := testWorkerServer("w2", nil)
	defer w2.Close()

	jobs, keys := jobSet(t, 10)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatalf("sweep must absorb one poisoned reply: %v", err)
	}
	if sink.len() != len(jobs) {
		t.Errorf("merged %d of %d jobs", sink.len(), len(jobs))
	}
	if sink.dups != 0 {
		t.Errorf("%d duplicate merges: the poisoned reply's valid prefix leaked into OnResult", sink.dups)
	}
	if got := Snapshot().DupsSuppressed; got != 0 {
		t.Errorf("DupsSuppressed = %d: valid prefix was merged before the reply was validated", got)
	}
}

// flappingWorker serves 503 on every endpoint while down, then recovers
// after recoverAfter failed pings — a worker mid-restart.
type flappingWorker struct {
	inner        http.Handler
	down         atomic.Bool
	failedPings  atomic.Int64
	recoverAfter int64
}

func (f *flappingWorker) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if f.down.Load() {
		if req.URL.Path == PathPing && f.failedPings.Add(1) >= f.recoverAfter {
			f.down.Store(false)
		}
		http.Error(rw, "restarting", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(rw, req)
}

// TestCoordinatorBenchesAndReadmits drives a sweep with one
// healthy-but-slow worker and one that is down at sweep start and
// recovers during it. The coordinator must bench the flapping worker,
// probe it on cooldown, and re-admit it once a probe passes — all
// observable on the live counters and the BenchRecords snapshot.
func TestCoordinatorBenchesAndReadmits(t *testing.T) {
	ResetStats()
	w1 := testWorkerServer("steady", slowExec(8*time.Millisecond))
	defer w1.Close()
	flap := &flappingWorker{
		inner:        NewWorker(WorkerOptions{Name: "flappy", Exec: stubExec}).Handler(),
		recoverAfter: 2,
	}
	flap.down.Store(true)
	w2 := httptest.NewServer(flap)
	defer w2.Close()

	jobs, keys := jobSet(t, 16)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatalf("sweep must survive a flapping worker: %v", err)
	}
	if sink.len() != len(jobs) || sink.dups != 0 {
		t.Errorf("merged %d of %d jobs with %d dups", sink.len(), len(jobs), sink.dups)
	}
	s := Snapshot()
	if s.WorkerBenchings == 0 {
		t.Error("breaker never tripped on the flapping worker")
	}
	if s.WorkerProbes < 2 {
		t.Errorf("WorkerProbes = %d, want >= 2 (recovery takes 2 failed pings)", s.WorkerProbes)
	}
	if s.WorkerReadmits == 0 {
		t.Error("flapping worker never re-admitted")
	}
	if s.WorkersLost == 0 {
		t.Error("WorkersLost not bumped on eviction")
	}
	if st := coord.BenchRecords()[w2.URL]; st.State != "active" || st.Readmissions == 0 {
		t.Errorf("flapping worker's final breaker = %+v, want closed with readmissions", st)
	}
}

// TestBreakerTripsOnConsecutiveFailures: a worker whose batch fails
// every in-place attempt is benched exactly once, with the failure
// streak on its record, while the healthy worker's record stays clean.
func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	alive := testWorkerServer("alive", nil)
	defer alive.Close()
	dead := testWorkerServer("dead", nil)
	dead.Close()

	jobs, keys := jobSet(t, 8)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{alive.URL, dead.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatal(err)
	}
	got := coord.BenchRecords()
	// fastOpts: Retries 1, so two failed attempts bench the worker.
	if s := got[dead.URL]; s.State != "benched" || s.Benchings != 1 || s.ConsecutiveFailures != 2 || s.Readmissions != 0 {
		t.Errorf("dead worker's record = %+v, want open after one trip on a 2-failure streak", s)
	}
	if s := got[alive.URL]; s != (BenchRecord{State: "active"}) {
		t.Errorf("healthy worker's record = %+v, want untouched", s)
	}
}

// TestBreakerProbeLifecycle walks one worker through the whole record:
// benched by the startup ping, one failed probe, one passing probe,
// re-admitted with its probe failures cleared.
func TestBreakerProbeLifecycle(t *testing.T) {
	steady := testWorkerServer("steady", slowExec(8*time.Millisecond))
	defer steady.Close()
	flap := &flappingWorker{
		inner:        NewWorker(WorkerOptions{Name: "flappy", Exec: stubExec}).Handler(),
		recoverAfter: 2, // the startup ping and the first probe fail
	}
	flap.down.Store(true)
	w2 := httptest.NewServer(flap)
	defer w2.Close()

	jobs, keys := jobSet(t, 16)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{steady.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := coord.BenchRecords()[w2.URL]; s.State != "benched" || s.Benchings != 1 {
		t.Fatalf("record after startup ping = %+v, want open with one trip", s)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatal(err)
	}
	want := BenchRecord{State: "active", Benchings: 1, Probes: 2, Readmissions: 1}
	if s := coord.BenchRecords()[w2.URL]; s != want {
		t.Errorf("record after the sweep = %+v, want %+v", s, want)
	}
	if sink.workers["flappy"] == 0 {
		t.Errorf("re-admitted worker took no batches: %v", sink.workers)
	}
}

// TestBreakerExhaustsProbeBudget: a worker that never answers again
// spends its whole probe budget and is given up; as the only worker,
// that fails the sweep.
func TestBreakerExhaustsProbeBudget(t *testing.T) {
	dead := testWorkerServer("dead", nil)
	dead.Close()
	jobs, keys := jobSet(t, 2)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{dead.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err == nil || !strings.Contains(err.Error(), "all workers failed") {
		t.Fatalf("err = %v, want all workers failed", err)
	}
	s := coord.BenchRecords()[dead.URL]
	if s.State != "benched" || s.Benchings != 1 || s.Probes != probeBudget || s.ProbeFailures != probeBudget {
		t.Errorf("record = %+v, want open with %d failed probes", s, probeBudget)
	}
}

// TestPingToleratesUnreachableWorker: a worker partitioned away at
// sweep start must not abort the run — Ping trips its breaker, the
// live worker carries the sweep, and the half-open probe loop
// re-admits the stray when its network heals. Only schema skew (a
// build mismatch) or a fully unreachable fleet aborts.
func TestPingToleratesUnreachableWorker(t *testing.T) {
	ResetStats()
	w1 := testWorkerServer("steady", slowExec(3*time.Millisecond))
	defer w1.Close()
	flap := &flappingWorker{
		inner:        NewWorker(WorkerOptions{Name: "stray", Exec: stubExec}).Handler(),
		recoverAfter: 1,
	}
	flap.down.Store(true)
	w2 := httptest.NewServer(flap)
	defer w2.Close()

	jobs, keys := jobSet(t, 12)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ping(context.Background()); err != nil {
		t.Fatalf("ping with one live worker must succeed, got: %v", err)
	}
	if st := coord.BenchRecords()[w2.URL]; st.State == "active" {
		t.Error("unreachable worker's breaker not tripped by startup ping")
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatalf("sweep with a startup-partitioned worker failed: %v", err)
	}
	if sink.len() != len(jobs) || sink.dups != 0 {
		t.Errorf("merged %d of %d jobs with %d dups", sink.len(), len(jobs), sink.dups)
	}
}

func TestPingFailsWhenAllWorkersUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{url}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Ping(context.Background()); err == nil {
		t.Error("ping with every worker unreachable must fail")
	}
}

// TestCoordinatorHedgesStragglers pins a straggler: one worker hangs
// on every job it receives. The rescuer drains the queue, then its
// idle loop re-leases the straggler's in-flight batch, takes its
// result, and cancels the straggler — with every job still merged
// exactly once.
func TestCoordinatorHedgesStragglers(t *testing.T) {
	ResetStats()
	jobs, keys := jobSet(t, 36)
	hangingExec := func(ctx context.Context, _ core.JobSpec) (metrics.Run, error) {
		<-ctx.Done()
		return metrics.Run{}, ctx.Err()
	}
	w1 := testWorkerServer("straggler", hangingExec)
	defer w1.Close()
	w2 := testWorkerServer("rescuer", nil)
	defer w2.Close()

	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coord.Run(context.Background(), jobs, keys) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sweep must re-lease around the straggler: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung: the straggler's batch was never re-leased")
	}
	if sink.len() != len(jobs) || sink.dups != 0 {
		t.Errorf("merged %d of %d jobs with %d dups", sink.len(), len(jobs), sink.dups)
	}
	if sink.workers["straggler"] != 0 {
		t.Errorf("results attributed to a worker that never answers: %v", sink.workers)
	}
	s := Snapshot()
	if s.HedgesIssued == 0 {
		t.Error("no re-leases issued for a hung batch")
	}
	if s.HedgeWins == 0 {
		t.Error("re-lease never won against a worker that hangs forever")
	}
	if s.DupsSuppressed != 0 {
		t.Errorf("DupsSuppressed = %d: a losing reply reached the merge", s.DupsSuppressed)
	}
}

// TestCoordinatorBalancesUnevenWorkers pins the pull queue's load
// balance: with one worker ten times slower than the other, the fast
// worker pulls most of the batches rather than an even half,
// and with re-leasing off every cut batch is sent exactly once.
func TestCoordinatorBalancesUnevenWorkers(t *testing.T) {
	ResetStats()
	fast := testWorkerServer("fast", slowExec(2*time.Millisecond))
	defer fast.Close()
	slow := testWorkerServer("slow", slowExec(20*time.Millisecond))
	defer slow.Close()

	jobs, keys := jobSet(t, 24)
	sink := newMergeSink()
	opts := fastOpts([]string{fast.URL, slow.URL}, sink)
	opts.DisableHedging = true
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatal(err)
	}
	if sink.len() != len(jobs) || sink.dups != 0 {
		t.Errorf("merged %d of %d jobs with %d dups", sink.len(), len(jobs), sink.dups)
	}
	if got := sink.workers["fast"]; 3*got < 2*len(jobs) {
		t.Errorf("fast worker merged %d of %d jobs, want at least two thirds: %v", got, len(jobs), sink.workers)
	}
	// 24 jobs over 2 shards of 12, cut into batches of 2.
	if got := Snapshot().BatchesSent; got != 12 {
		t.Errorf("BatchesSent = %d, want the 12 cut batches", got)
	}
}

// TestConcurrentSnapshotsDuringChaoticSweep hammers every
// observability read path — coordinator stats, breaker snapshots, live
// counters, fleet snapshots with a breaker source — while a sweep is
// rebalancing around a flapping worker. Run under -race this is the
// data-race property test for the self-healing machinery.
func TestConcurrentSnapshotsDuringChaoticSweep(t *testing.T) {
	ResetStats()
	w1 := testWorkerServer("steady", slowExec(3*time.Millisecond))
	defer w1.Close()
	flap := &flappingWorker{
		inner:        NewWorker(WorkerOptions{Name: "flappy", Exec: stubExec}).Handler(),
		recoverAfter: 2,
	}
	flap.down.Store(true)
	w2 := httptest.NewServer(flap)
	defer w2.Close()

	jobs, keys := jobSet(t, 20)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{w1.URL, w2.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet(FleetOptions{
		Workers:  []string{w1.URL, w2.URL},
		Interval: 2 * time.Millisecond,
	})
	fleet.SetBenchSource(coord.BenchRecords)
	fctx, fcancel := context.WithCancel(context.Background())
	fleet.Start(fctx)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = coord.Stats()
				_ = coord.BenchRecords()
				_ = Snapshot()
				_ = fleet.Snapshot()
			}
		}()
	}
	err = coord.Run(context.Background(), jobs, keys)
	close(stop)
	readers.Wait()
	fcancel()
	fleet.Wait()
	if err != nil {
		t.Fatalf("sweep failed under concurrent observation: %v", err)
	}
	if sink.len() != len(jobs) || sink.dups != 0 {
		t.Errorf("merged %d of %d jobs with %d dups", sink.len(), len(jobs), sink.dups)
	}
}

// TestWorkerMetricsExposeRetryAndQuarantine validates — through the
// same Prometheus parser the fleet monitor uses — that a worker's
// /metrics page carries the runner's retry and store-quarantine
// counters the fleet scrapes for sick-host detection.
func TestWorkerMetricsExposeRetryAndQuarantine(t *testing.T) {
	w := testWorkerServer("w", nil)
	defer w.Close()
	resp, err := http.Get(w.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := telemetry.ParsePromText(resp.Body)
	if err != nil {
		t.Fatalf("worker /metrics is not parseable Prometheus text: %v", err)
	}
	for _, name := range []string{
		"bce_runner_jobs_retried",
		"bce_runner_store_quarantined",
		"bce_dist_batches_served",
		"bce_dist_jobs_failed",
	} {
		if _, ok := m.Get(name); !ok {
			t.Errorf("worker /metrics missing %s", name)
		}
	}
}

// TestFleetReportsBreakerStates checks that a fleet snapshot decorates
// each worker's scraped health with the coordinator-side breaker state
// and the scraped retry/quarantine counters.
func TestFleetReportsBreakerStates(t *testing.T) {
	w := testWorkerServer("w", nil)
	defer w.Close()
	fleet := NewFleet(FleetOptions{Workers: []string{w.URL}})
	fleet.SetBenchSource(func() map[string]BenchRecord {
		return map[string]BenchRecord{w.URL: {State: "probing", Benchings: 3}}
	})
	fleet.pollAll(context.Background())
	snap := fleet.Snapshot()
	h, ok := snap.PerWorker[w.URL]
	if !ok || !h.Up {
		t.Fatalf("worker not polled up: %+v", snap)
	}
	if h.Bench != "probing" {
		t.Errorf("breaker state = %q, want half-open", h.Bench)
	}
	// The scraped counters exist (zero on a fresh worker is fine); a
	// scrape that could not find them would also have failed the Up
	// check if the page were missing, so assert via the JSON shape.
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"jobs_retried", "store_quarantined", "bench"} {
		if !json.Valid(data) || !containsField(data, field) {
			t.Errorf("fleet health JSON missing %q: %s", field, data)
		}
	}
}

func containsField(data []byte, field string) bool {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return false
	}
	_, ok := m[field]
	return ok
}

// TestWorkerAnswersCorruptionWith409 posts a valid batch under a
// mismatched content digest: the worker must answer 409 (transient to
// the coordinator) before parsing, and stamp its own reply digest.
func TestWorkerAnswersCorruptionWith409(t *testing.T) {
	w := NewWorker(WorkerOptions{Name: "w", Exec: stubExec})
	payload, err := EncodeBatch(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, PathExec, bytesReader(payload))
	req.Header.Set(HeaderDigest, ContentDigest([]byte("what was actually sent")))
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("digest mismatch answered %d, want 409", rec.Code)
	}
	if got := rec.Header().Get(HeaderDigest); got != ContentDigest(rec.Body.Bytes()) {
		t.Errorf("409 reply digest %q does not match its body", got)
	}
}

// TestWorkerStampsReplyDigest checks the success path carries a digest
// the coordinator can verify.
func TestWorkerStampsReplyDigest(t *testing.T) {
	w := NewWorker(WorkerOptions{Name: "w", Exec: stubExec})
	payload, err := EncodeBatch(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, PathExec, bytesReader(payload))
	req.Header.Set(HeaderDigest, ContentDigest(payload))
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid batch answered %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderDigest); got != ContentDigest(rec.Body.Bytes()) {
		t.Errorf("reply digest %q does not match reply body", got)
	}
	// Malformed batches are still deterministic 400s — stamped, so the
	// coordinator can tell them from transit damage.
	bad := []byte(`{"schema":1,"jobs":[]}`)
	req = httptest.NewRequest(http.MethodPost, PathExec, bytesReader(bad))
	req.Header.Set(HeaderDigest, ContentDigest(bad))
	rec = httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch answered %d, want 400", rec.Code)
	}
	if got := rec.Header().Get(HeaderDigest); got != ContentDigest(rec.Body.Bytes()) {
		t.Errorf("400 reply digest %q does not match its body", got)
	}
}

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

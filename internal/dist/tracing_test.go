package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bce/internal/metrics"
	"bce/internal/telemetry"
)

// TestBatchResultV1Compat pins wire compatibility in both directions
// across the tracing change. A /dist/v1 payload — the literal bytes an
// untraced worker of the current schema sends, no spans field — must
// decode under this build's strict decoder; and a reply carrying no
// spans must encode without a spans key, so an untraced coordinator's
// DisallowUnknownFields decoder accepts it.
func TestBatchResultV1Compat(t *testing.T) {
	v1 := `{"schema":2,"worker":"old","results":[{"key":"k1","run":{}},{"key":"k2","err":"boom","transient":true}]}`
	got, err := DecodeBatchResult([]byte(v1))
	if err != nil {
		t.Fatalf("v1 payload (no spans) rejected: %v", err)
	}
	if got.Worker != "old" || len(got.Results) != 2 || got.Spans != nil {
		t.Errorf("v1 payload mangled: %+v", got)
	}

	run := metrics.Run{Retired: 1}
	data, err := EncodeBatchResult(BatchResult{
		Schema:  SchemaVersion,
		Worker:  "new",
		Results: []JobResult{{Key: "k", Run: &run}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "spans") {
		t.Errorf("span-free reply leaks a spans key (breaks old strict decoders): %s", data)
	}
}

func TestBatchResultSpansRoundTrip(t *testing.T) {
	run := metrics.Run{Retired: 7}
	want := BatchResult{
		Schema:  SchemaVersion,
		Worker:  "w1",
		Results: []JobResult{{Key: "k", Run: &run}},
		Spans: []telemetry.SpanData{
			{TraceID: "t1", SpanID: "s1", Name: "exec", Proc: "w1", Start: 100, Dur: 50},
			{TraceID: "t1", SpanID: "s2", Parent: "s1", Name: "job", Proc: "w1",
				Start: 110, Dur: 20, Attrs: map[string]string{"bench": "gzip"}},
		},
	}
	data, err := EncodeBatchResult(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("spans mangled: %+v", got.Spans)
	}
	if got.Spans[1].Parent != "s1" || got.Spans[1].Attrs["bench"] != "gzip" {
		t.Errorf("span fields mangled: %+v", got.Spans[1])
	}
}

func TestDecodeBatchResultRejectsBadSpans(t *testing.T) {
	run := metrics.Run{Retired: 1}
	base := func() BatchResult {
		return BatchResult{Schema: SchemaVersion, Results: []JobResult{{Key: "k", Run: &run}}}
	}
	for _, tc := range []struct {
		name string
		span telemetry.SpanData
		want string
	}{
		{"no trace id", telemetry.SpanData{SpanID: "s", Name: "n"}, "span"},
		{"no span id", telemetry.SpanData{TraceID: "t", Name: "n"}, "span"},
		{"no name", telemetry.SpanData{TraceID: "t", SpanID: "s"}, "span"},
		{"negative dur", telemetry.SpanData{TraceID: "t", SpanID: "s", Name: "n", Dur: -1}, "negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := base()
			r.Spans = []telemetry.SpanData{tc.span}
			data, err := EncodeBatchResult(r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeBatchResult(data); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("DecodeBatchResult = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestCoordinatorTracedSweep runs a real 2-worker sweep with a tracer
// attached and checks the merged span set: one trace id across both
// processes, worker job spans parented (transitively) on coordinator
// shard spans, and a span per job.
func TestCoordinatorTracedSweep(t *testing.T) {
	w1 := testWorkerServer("w1", nil)
	defer w1.Close()
	w2 := testWorkerServer("w2", nil)
	defer w2.Close()

	jobs, keys := jobSet(t, 9)
	sink := newMergeSink()
	tracer := telemetry.NewTracer("coordinator")
	opts := fastOpts([]string{w1.URL, w2.URL}, sink)
	opts.Tracer = tracer
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatal(err)
	}

	spans := tracer.Drain()
	byID := make(map[string]telemetry.SpanData, len(spans))
	byName := make(map[string][]telemetry.SpanData)
	traceIDs := make(map[string]struct{})
	for _, sp := range spans {
		byID[sp.SpanID] = sp
		byName[sp.Name] = append(byName[sp.Name], sp)
		traceIDs[sp.TraceID] = struct{}{}
	}
	if len(traceIDs) != 1 {
		t.Fatalf("want one trace id across coordinator+workers, got %d: %v", len(traceIDs), traceIDs)
	}
	if n := len(byName["sweep"]); n != 1 {
		t.Fatalf("want exactly one sweep root span, got %d", n)
	}
	if n := len(byName["shard"]); n != 2 {
		t.Errorf("want one shard span per worker, got %d", n)
	}
	if n := len(byName["job"]); n != len(jobs) {
		t.Errorf("want one worker job span per job, got %d of %d", n, len(jobs))
	}
	if len(byName["exec"]) == 0 || len(byName["batch"]) == 0 {
		t.Errorf("missing exec/batch spans: %v", names(spans))
	}
	procs := map[string]bool{}
	for _, sp := range spans {
		procs[sp.Proc] = true
		if sp.Parent == "" {
			if sp.Name != "sweep" {
				t.Errorf("unexpected root span %q (proc %s)", sp.Name, sp.Proc)
			}
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Errorf("span %s (%q, proc %s) has unresolved parent %s", sp.SpanID, sp.Name, sp.Proc, sp.Parent)
		}
	}
	if !procs["coordinator"] || !procs["w1"] || !procs["w2"] {
		t.Errorf("want spans from coordinator and both workers, got procs %v", procs)
	}
	// Worker exec spans must parent onto coordinator batch spans: the
	// cross-process stitch.
	for _, ex := range byName["exec"] {
		parent, ok := byID[ex.Parent]
		if !ok || parent.Name != "batch" || parent.Proc != "coordinator" {
			t.Errorf("exec span parent = %+v, want a coordinator batch span", parent)
		}
	}
	started, ended := tracer.Counts()
	if started != ended {
		t.Errorf("span leak: started %d, ended %d", started, ended)
	}
}

func names(spans []telemetry.SpanData) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Proc + "/" + sp.Name
	}
	return out
}

// TestCoordinatorUntracedSendsNoHeaders pins the byte-identity side of
// propagation: without a tracer, exec requests carry no trace headers,
// so workers never attach spans.
func TestCoordinatorUntracedSendsNoHeaders(t *testing.T) {
	var sawHeader bool
	inner := NewWorker(WorkerOptions{Name: "w", Exec: stubExec}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Header.Get(HeaderTraceID) != "" || req.Header.Get(HeaderSpanID) != "" {
			sawHeader = true
		}
		inner.ServeHTTP(rw, req)
	}))
	defer srv.Close()

	jobs, keys := jobSet(t, 4)
	sink := newMergeSink()
	coord, err := NewCoordinator(fastOpts([]string{srv.URL}, sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatal(err)
	}
	if sawHeader {
		t.Error("untraced coordinator sent trace-context headers")
	}
}

// TestFleetPollsWorkers scrapes a real worker handler and a dead URL.
func TestFleetPollsWorkers(t *testing.T) {
	w := NewWorker(WorkerOptions{Name: "fw", Exec: stubExec})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	fleet := NewFleet(FleetOptions{
		Workers:  []string{srv.URL, deadURL},
		Interval: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	fleet.Start(ctx)
	deadline := time.Now().Add(5 * time.Second)
	var snap FleetSnapshot
	for {
		snap = fleet.Snapshot()
		if snap.WorkersUp == 1 && snap.WorkersDown == 1 && snap.WorkersReady == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	fleet.Wait()

	h := snap.PerWorker[srv.URL]
	if !h.Up || !h.Ready || h.Polls == 0 {
		t.Errorf("live worker health: %+v", h)
	}
	if d := snap.PerWorker[deadURL]; d.Up || d.Failures == 0 {
		t.Errorf("dead worker health: %+v", d)
	}

	// Readiness flips propagate on the next poll.
	w.SetReady(false)
	deadline = time.Now().Add(5 * time.Second)
	fleet2 := NewFleet(FleetOptions{Workers: []string{srv.URL}, Interval: 10 * time.Millisecond})
	ctx2, cancel2 := context.WithCancel(context.Background())
	fleet2.Start(ctx2)
	for {
		s := fleet2.Snapshot()
		if s.WorkersUp == 1 && s.WorkersReady == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("unready worker still reported ready: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel2()
	fleet2.Wait()
}

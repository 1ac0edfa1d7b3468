package dist

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"bce/internal/faults/netproxy"
)

// chaos_netproxy_test.go drives coordinator↔worker sweeps through the
// in-process TCP chaos proxy: real HTTP over a transport that injects
// latency, resets, byte corruption, and partitions per a deterministic
// schedule. The invariant under every schedule: all jobs merge exactly
// once, or the sweep fails loudly — never silent loss, never
// duplicates.

// proxied starts a chaos proxy in front of a worker URL and returns
// the proxy's URL for the coordinator to dial.
func proxied(t *testing.T, workerURL string, sched netproxy.Schedule) string {
	t.Helper()
	target := strings.TrimPrefix(workerURL, "http://")
	p, err := netproxy.Start(target, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p.URL()
}

// chaosClient bounds each request so a connection stalled by the proxy
// (e.g. corrupted framing leaving the server waiting for bytes) fails
// transiently instead of hanging the sweep.
func chaosClient() *http.Client {
	return &http.Client{Timeout: 2 * time.Second}
}

func runChaosSweep(t *testing.T, n int, opts Options) *mergeSink {
	t.Helper()
	ResetStats()
	jobs, keys := jobSet(t, n)
	sink := newMergeSink()
	opts.OnResult = sink.OnResult
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Run(context.Background(), jobs, keys); err != nil {
		t.Fatalf("sweep through chaos proxy failed: %v", err)
	}
	if sink.len() != n {
		t.Errorf("merged %d of %d jobs: lost work", sink.len(), n)
	}
	if sink.dups != 0 {
		t.Errorf("%d duplicate merges through chaos proxy", sink.dups)
	}
	return sink
}

func TestSweepThroughLatencyJitterProxy(t *testing.T) {
	w1 := testWorkerServer("w1", nil)
	defer w1.Close()
	w2 := testWorkerServer("w2", nil)
	defer w2.Close()
	sched := netproxy.Schedule{Seed: 11, Rules: []netproxy.Rule{
		{ForMS: 0, LatencyMS: 3, JitterMS: 5},
	}}
	runChaosSweep(t, 12, Options{
		Workers:      []string{proxied(t, w1.URL, sched), proxied(t, w2.URL, sched)},
		BatchSize:    2,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		Client:       chaosClient(),
	})
}

func TestSweepThroughResettingProxy(t *testing.T) {
	w1 := testWorkerServer("w1", nil)
	defer w1.Close()
	w2 := testWorkerServer("w2", nil)
	defer w2.Close()
	// Connections die with 20% probability per chunk for 150ms, then
	// the network heals. Deterministic from the seed.
	sched := netproxy.Schedule{Seed: 23, Rules: []netproxy.Rule{
		{ForMS: 150, ResetProb: 0.2},
		{ForMS: 0},
	}}
	runChaosSweep(t, 16, Options{
		Workers:      []string{proxied(t, w1.URL, sched), proxied(t, w2.URL, sched)},
		BatchSize:    2,
		Retries:      2,
		RetryBackoff: time.Millisecond,
		Client:       chaosClient(),
	})
}

func TestSweepThroughCorruptingProxy(t *testing.T) {
	w1 := testWorkerServer("w1", slowExec(2*time.Millisecond))
	defer w1.Close()
	w2 := testWorkerServer("w2", nil)
	defer w2.Close()
	// Every chunk takes a bit flip for 80ms — requests arrive mangled
	// (worker answers 409 on digest mismatch, or the HTTP machinery
	// 400s/chokes) and replies come back mangled (digest mismatch at
	// the coordinator). All of it must classify as transient; after the
	// window the sweep completes with no duplicate merges. Only w2's
	// path is corrupted so recovery never depends on probe timing luck.
	sched := netproxy.Schedule{Seed: 37, Rules: []netproxy.Rule{
		{ForMS: 80, CorruptProb: 1},
		{ForMS: 0},
	}}
	clean := netproxy.Schedule{Seed: 5, Rules: []netproxy.Rule{{ForMS: 0}}}
	runChaosSweep(t, 16, Options{
		Workers:      []string{proxied(t, w1.URL, clean), proxied(t, w2.URL, sched)},
		BatchSize:    2,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		Client:       chaosClient(),
	})
	if s := Snapshot(); s.DupsSuppressed != 0 {
		// The guard may legally suppress, but with whole-reply
		// validation nothing from a corrupted exchange should ever have
		// merged in the first place.
		t.Logf("note: %d duplicate merges suppressed by the guard", s.DupsSuppressed)
	}
}

func TestSweepThroughFlappingPartition(t *testing.T) {
	w1 := testWorkerServer("steady", slowExec(5*time.Millisecond))
	defer w1.Close()
	w2 := testWorkerServer("flappy", nil)
	defer w2.Close()
	// w2's network partitions for 30ms at sweep start, then heals: its
	// breaker must trip (connections refused/killed), its batches must
	// drain through w1, and once probes get through it must be
	// re-admitted — all while w1 keeps the sweep alive.
	flap := netproxy.Schedule{Seed: 41, Rules: []netproxy.Rule{
		{ForMS: 30, Partition: true},
		{ForMS: 0},
	}}
	clean := netproxy.Schedule{Seed: 6, Rules: []netproxy.Rule{{ForMS: 0}}}
	runChaosSweep(t, 24, Options{
		Workers:      []string{proxied(t, w1.URL, clean), proxied(t, w2.URL, flap)},
		BatchSize:    2,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		Client:       chaosClient(),
	})
	s := Snapshot()
	if s.WorkerBenchings == 0 {
		t.Error("partition never tripped the breaker")
	}
	if s.WorkerProbes == 0 {
		t.Error("no probes issued against the partitioned worker")
	}
	if s.WorkerReadmits == 0 {
		t.Error("partitioned worker never re-admitted after the network healed")
	}
}

package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"bce/internal/core"
	"bce/internal/runner"
	"bce/internal/telemetry"
)

// recorder collects one repetition's layer measurements from the hooks
// the program already exposes (runner.SetCaptureHook, core.SetProgress,
// core.SetJobObserver) and from the benchmark's own calls. With a
// tracer it also records spans at the coarse boundaries: run →
// experiment → sweep, simulation → Sim.Run. Hooks fire from pool
// goroutines, so every field is guarded by mu.
type recorder struct {
	tracer *telemetry.Tracer
	root   *telemetry.Span

	mu sync.Mutex
	// Sweeps seen by the capture hook, their summed duration and the
	// summed time each sweep ran with a free pool slot (its tail).
	sweeps   int
	sweepDur time.Duration
	tail     time.Duration
	// penultimate is the Elapsed of the current sweep's next-to-last
	// completion, or -1.
	penultimate time.Duration
	// Job records from core.
	jobsFresh, jobsCached, jobsFunctional int
	// cycles and retired sum the measured spans of every simulation
	// this process ran or merged: fresh core jobs, the benchmark's own
	// simulations, and fleet results.
	cycles, retired uint64
	// freshSegments counts the workload builds behind fresh timing jobs.
	freshSegments uint64
	// Per-experiment wall time, keyed by metric name (core.table2_s…).
	exp map[string]time.Duration
	// Layer times from the decorators, merged per simulation.
	layers layerTimes
	// Sim.Run totals over every call (warm-up included) and the
	// children's time inside those calls.
	simRun      time.Duration
	simRunChild int64
	simCycles   uint64
	simRetired  uint64
	builds      int
	buildDur    time.Duration
	// functionalChild is the decorated children's time inside
	// RunFunctional calls.
	functionalChild int64
}

func newRecorder(traced bool) *recorder {
	r := &recorder{exp: map[string]time.Duration{}, penultimate: -1}
	if traced {
		r.tracer = telemetry.NewTracer("perfbench")
		r.root = r.tracer.StartTrace("run")
	}
	return r
}

// install points the program's hooks at the recorder and resets the
// process-global result cache, so the repetition starts cold even if a
// caller reused the process.
func (r *recorder) install() {
	core.ResetResultCache()
	core.SetParallelism(poolSize)
	core.SetProgress(r.progress)
	core.SetJobObserver(r.observe)
	runner.SetCaptureHook(r.sweep)
}

func (r *recorder) sweep(ctx context.Context, phase string) func() {
	var span *telemetry.Span
	if r.tracer != nil {
		parent, _ := telemetry.SpanContextFrom(ctx)
		span = r.tracer.StartSpan("sweep", parent)
		span.SetAttr("phase", phase)
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		span.End()
		r.mu.Lock()
		r.sweeps++
		r.sweepDur += d
		r.mu.Unlock()
	}
}

// progress measures each sweep's tail: once the next-to-last job has
// completed no job is left to start, so one pool slot idles until the
// last job ends. Sweeps run one at a time in every workload here.
func (r *recorder) progress(p runner.Progress) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case p.Total == 1 && p.Done == 1:
		r.tail += p.Elapsed
	case p.Done == p.Total-1:
		r.penultimate = p.Elapsed
	case p.Done == p.Total && r.penultimate >= 0:
		r.tail += p.Elapsed - r.penultimate
		r.penultimate = -1
	}
}

func (r *recorder) observe(rec core.JobRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case rec.Kind == "functional":
		r.jobsFunctional++
	case rec.Cached:
		r.jobsCached++
	default:
		r.jobsFresh++
		if rec.Run != nil {
			r.cycles += rec.Run.Cycles
			r.retired += rec.Run.Retired
			r.freshSegments += rec.Run.Segments
		}
	}
}

// span starts a child span of parent, or of the run root when parent is
// nil; it is a no-op without a tracer.
func (r *recorder) span(name string, parent *telemetry.Span) *telemetry.Span {
	if r.tracer == nil {
		return nil
	}
	if parent == nil {
		parent = r.root
	}
	return r.tracer.StartSpan(name, parent.Context())
}

// experiment runs one experiment call under an "experiment" span,
// exposing the span to the sweeps it starts through core's base
// context, and adds its wall time to metric.
func (r *recorder) experiment(metric string, fn func() error) error {
	span := r.span("experiment", nil)
	span.SetAttr("name", metric)
	core.SetBaseContext(telemetry.ContextWithSpan(context.Background(), span))
	start := time.Now()
	err := fn()
	d := time.Since(start)
	span.End()
	core.SetBaseContext(nil)
	r.mu.Lock()
	r.exp[metric] += d
	r.mu.Unlock()
	return err
}

// spans ends the root span and returns every recorded span.
func (r *recorder) spans() []telemetry.SpanData {
	if r.tracer == nil {
		return nil
	}
	r.root.End()
	return r.tracer.Drain()
}

// selfTime sums, over spans named name, each span's duration minus the
// part of it covered by its child spans.
func selfTime(spans []telemetry.SpanData, name string) time.Duration {
	children := map[string][][2]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.Start + s.Dur})
		}
	}
	var self int64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		self += s.Dur - covered(children[s.SpanID], s.Start, s.Start+s.Dur)
	}
	return time.Duration(self) * time.Microsecond
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi]; concurrent children overlap and must not count twice.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

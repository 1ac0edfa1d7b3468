package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"bce/internal/core"
	"bce/internal/dist"
	"bce/internal/runner"
	"bce/internal/telemetry"
)

// child.go is one repetition of a workload, run in a fresh process so
// that it starts with an empty result cache, zeroed dist counters, its
// own peak RSS and (on fleet-quick) two fresh workers.

// repResult is what a repetition reports to the parent, as one JSON
// line on standard output.
type repResult struct {
	// WorkStartNs is the wall clock (Unix ns) at the first unit of
	// work; the parent subtracts its launch time to get set-up time.
	WorkStartNs int64   `json:"work_start_ns"`
	WallS       float64 `json:"wall_s"`
	// RSSKB is the peak resident set of this process and of each
	// worker it ran, in KiB.
	RSSKB    []int64            `json:"rss_kb"`
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	Problems []string           `json:"problems,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	// Outputs holds every operation's output, in record mode only.
	Outputs  map[string]string `json:"outputs,omitempty"`
	OtherTop string            `json:"other_top,omitempty"`
}

type childArgs struct {
	workload  string
	seed      int64
	traced    bool // decorators and spans
	profile   bool // CPU profile folded into the ledger
	setupOnly bool
	record    bool
	goldens   string // goldens directory
	outDir    string // where span traces are written
}

func runChild(a childArgs) (*repResult, error) {
	rec := newRecorder(a.traced)
	rec.install()
	var fleet *fleetRun
	if a.workload == "fleet-quick" {
		var err error
		if fleet, err = setupFleet(rec); err != nil {
			return nil, fmt.Errorf("fleet set-up: %w", err)
		}
	}
	res := &repResult{Metrics: map[string]float64{}}
	if a.setupOnly {
		res.WorkStartNs = time.Now().UnixNano()
		if fleet != nil {
			stopWorkers(fleet.workers)
		}
		return res, nil
	}
	var cpu *cpuProfile
	if a.profile {
		var err error
		if cpu, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	led := newLedger()
	res.WorkStartNs = time.Now().UnixNano()
	start := time.Now()
	var ops []opResult
	var ft fleetTimes
	var stopScrape func()
	seg := segmentOf(a.seed)
	switch a.workload {
	case "paper-quick":
		ops = runExperiments(rec, paperExperiments)
	case "sim-long":
		ops = simLong(rec, seg, a.traced)
	case "functional-long":
		ops = functionalLong(rec, a.traced)
	case "fleet-quick":
		if a.profile {
			stopScrape = scrapeWorkers(fleet, led)
		}
		ops, ft = fleet.runFleet(rec)
	default:
		return nil, fmt.Errorf("unknown workload %q", a.workload)
	}
	res.WallS = time.Since(start).Seconds()
	if stopScrape != nil {
		// The last profile window ends up to a second after the work;
		// waiting for it here keeps that out of the timed region.
		stopScrape()
	}
	if cpu != nil {
		if err := led.addRaw(cpu.stop()); err != nil {
			return nil, err
		}
	}
	var workerRSS []int64
	if fleet != nil {
		workerRSS = stopWorkers(fleet.workers)
	}
	spans := rec.spans()
	if a.traced {
		if err := writeSpans(a.outDir, a.workload, a.seed, spans); err != nil {
			return nil, err
		}
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	res.RSSKB = append([]int64{ru.Maxrss}, workerRSS...)
	layerMetrics(res.Metrics, rec, spans, a, ft, fleet)
	if a.profile {
		for b, s := range led.shares() {
			res.Metrics["ledger."+b] = s
		}
		res.Metrics["ledger.cpu_s"] = float64(led.total) / 1e9
		res.OtherTop = led.topOther(5)
	}

	res.Ops = len(ops)
	if a.record {
		res.Outputs = map[string]string{}
		for _, op := range ops {
			if op.err != nil {
				return nil, fmt.Errorf("%s: %w", op.name, op.err)
			}
			res.Outputs[op.name] = op.got
		}
		return res, nil
	}
	g, err := loadGoldens(a.goldens)
	if err != nil {
		return nil, err
	}
	want := g.outputs(a.workload, seg)
	for _, op := range ops {
		switch {
		case op.err != nil:
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %v", op.name, op.err))
		case want[op.name] != op.got:
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("%s: output differs from its golden", op.name))
		}
	}
	// The cold-run guard and the exact-count check: a repetition whose
	// counts differ from the recorded ones (a warm cache, a changed
	// job set) fails as a whole.
	for _, p := range g.checkCounts(a.workload, seg, res.Metrics) {
		res.Problems = append(res.Problems, p)
		res.Failed = res.Ops
	}
	return res, nil
}

// scrapeWorkers profiles the workers in back-to-back one-second windows
// through dist.FleetProfile, folding each merged fleet profile into the
// ledger, until the returned stop function is called; stop returns once
// the last window is folded in.
func scrapeWorkers(f *fleetRun, led *ledger) (stop func()) {
	urls := workerURLs(f.workers)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
			}
			p, _, err := dist.FleetProfile(context.Background(), nil, urls, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: worker profile:", err)
				continue
			}
			if err := led.addProfile(p); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// layerMetrics fills m with the repetition's per-layer metrics. Span-
// and decorator-based values exist only in traced repetitions.
func layerMetrics(m map[string]float64, rec *recorder, spans []telemetry.SpanData, a childArgs, ft fleetTimes, f *fleetRun) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	l := rec.layers
	funcSegs := 1
	if a.workload == "functional-long" {
		funcSegs = funcSegments
	}
	m["workload.build_s"] = rec.buildDur.Seconds()
	m["workload.builds"] = float64(rec.builds + int(rec.freshSegments) + rec.jobsFunctional*funcSegs)
	m["pipeline.cycles"] = float64(rec.cycles)
	m["pipeline.retired_uops"] = float64(rec.retired)
	m["pipeline.ns_per_cycle"] = 0
	m["pipeline.muops_per_s"] = 0
	if rec.simCycles > 0 {
		m["pipeline.ns_per_cycle"] = float64(rec.simRun.Nanoseconds()) / float64(rec.simCycles)
		m["pipeline.muops_per_s"] = float64(rec.simRetired) / rec.simRun.Seconds() / 1e6
	}
	for _, e := range paperExperiments {
		m[e.metric] = rec.exp[e.metric].Seconds()
	}
	m["core.plan_s"] = ft.plan.Seconds()
	m["core.plan_jobs"] = float64(ft.planJobs)
	m["core.aggregate_s"] = ft.aggregate.Seconds()

	m["runner.sweeps"] = float64(rec.sweeps)
	m["runner.sweep_s"] = rec.sweepDur.Seconds()
	m["runner.tail_s"] = rec.tail.Seconds()
	m["runner.jobs_fresh"] = float64(rec.jobsFresh)
	m["runner.jobs_cached"] = float64(rec.jobsCached)
	m["runner.jobs_functional"] = float64(rec.jobsFunctional)
	hits, misses := core.ResultCacheStats()
	m["runner.cache_hit_frac"] = 0
	if hits+misses > 0 {
		m["runner.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	m["runner.retries"] = float64(runner.LiveSnapshot().JobsRetried)

	ds := dist.Snapshot()
	m["dist.batches"] = float64(ds.BatchesSent)
	m["dist.retries"] = float64(ds.BatchRetries)
	m["dist.hedges"] = float64(ds.HedgesIssued)
	m["dist.useful_frac"] = 0
	if ds.JobsDispatched > 0 {
		m["dist.useful_frac"] = float64(ds.JobsMerged) / float64(ds.JobsDispatched)
	}
	m["dist.ping_s"], m["dist.run_s"] = 0, ft.run.Seconds()
	m["dist.batch_ms_p50"], m["dist.batch_ms_tail"], m["dist.batch_tail_pct"] = 0, 0, 0
	m["dist.req_mb"], m["dist.resp_mb"] = 0, 0
	if f != nil {
		m["dist.ping_s"] = f.pingDur.Seconds()
		m["dist.batch_ms_p50"], m["dist.batch_ms_tail"], m["dist.batch_tail_pct"] = f.wire.percentiles()
		f.wire.mu.Lock()
		m["dist.req_mb"] = float64(f.wire.reqBytes) / (1 << 20)
		m["dist.resp_mb"] = float64(f.wire.respBytes) / (1 << 20)
		f.wire.mu.Unlock()
	}
	if !a.traced {
		return
	}
	m["workload.next_s"] = float64(l.nextNs) / 1e9
	m["workload.next_uops"] = float64(l.nextUops)
	m["workload.wrong_s"] = float64(l.wrongNs) / 1e9
	m["workload.wrong_uops"] = float64(l.wrongUops)
	m["predictor.s"] = float64(l.predNs) / 1e9
	m["predictor.calls"] = float64(l.predCalls)
	m["confidence.s"] = float64(l.confNs) / 1e9
	m["confidence.calls"] = float64(l.confCalls)
	m["pipeline.self_s"] = max(0, (selfTime(spans, "Sim.Run") - time.Duration(rec.simRunChild)).Seconds())
	m["core.functional_self_s"] = max(0, (selfTime(spans, "functional") - time.Duration(rec.functionalChild)).Seconds())
}

// writeSpans writes the repetition's span trace (Chrome trace_event
// JSON) for inspection.
func writeSpans(dir, workload string, seed int64, spans []telemetry.SpanData) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)))
	if err != nil {
		return err
	}
	if err := telemetry.WriteSpanTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult writes the result as the child's only stdout line.
func printResult(r *repResult) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

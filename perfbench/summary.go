package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
}

// perLayer are the traced run's metrics, each reported on every
// workload; a layer a workload does not reach through the benchmark
// reads 0 there (see BENCHMARK.json).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.build_s", "s"}, {"workload.builds", "count"},
		{"workload.next_s", "s"}, {"workload.next_uops", "count"},
		{"workload.wrong_s", "s"}, {"workload.wrong_uops", "count"},
		{"predictor.s", "s"}, {"predictor.calls", "count"},
		{"confidence.s", "s"}, {"confidence.calls", "count"},
		{"pipeline.self_s", "s"}, {"pipeline.cycles", "count"}, {"pipeline.retired_uops", "count"},
		{"pipeline.ns_per_cycle", "ns"}, {"pipeline.muops_per_s", "Muops/s"},
	}
	for _, e := range paperExperiments {
		defs = append(defs, metricDef{e.metric, "s"})
	}
	defs = append(defs,
		metricDef{"core.functional_self_s", "s"}, metricDef{"core.plan_s", "s"},
		metricDef{"core.plan_jobs", "count"}, metricDef{"core.aggregate_s", "s"},
		metricDef{"runner.sweeps", "count"}, metricDef{"runner.sweep_s", "s"}, metricDef{"runner.tail_s", "s"},
		metricDef{"runner.jobs_fresh", "count"}, metricDef{"runner.jobs_cached", "count"},
		metricDef{"runner.jobs_functional", "count"}, metricDef{"runner.cache_hit_frac", "frac"},
		metricDef{"runner.retries", "count"},
		metricDef{"dist.ping_s", "s"}, metricDef{"dist.run_s", "s"}, metricDef{"dist.batches", "count"},
		metricDef{"dist.batch_ms_p50", "ms"}, metricDef{"dist.batch_ms_tail", "ms"},
		metricDef{"dist.req_mb", "MB"}, metricDef{"dist.resp_mb", "MB"},
		metricDef{"dist.useful_frac", "frac"}, metricDef{"dist.retries", "count"}, metricDef{"dist.hedges", "count"},
	)
	for _, b := range ledgerBuckets {
		defs = append(defs, metricDef{"ledger." + b, "frac"})
	}
	return append(defs, metricDef{"ledger.cpu_s", "s"}, metricDef{"traced.overhead_frac", "frac"})
}()

// decorated are the per-layer metrics only the traced repetitions
// measure (decorators and spans). Every other per-layer metric comes
// from the profiled repetitions, which run the program undecorated.
var decorated = map[string]bool{
	"workload.next_s": true, "workload.next_uops": true,
	"workload.wrong_s": true, "workload.wrong_uops": true,
	"predictor.s": true, "predictor.calls": true,
	"confidence.s": true, "confidence.calls": true,
	"pipeline.self_s": true, "core.functional_self_s": true,
}

// ledgerTolerance bounds how far a repetition's ledger shares may sum
// from 1; every sample is in exactly one bucket, so only float rounding
// separates them.
const ledgerTolerance = 1e-9

// summary is one run of one workload.
type summary struct {
	workload string
	seed     int64
	traced   bool

	setups              []float64
	walls, cpus, rss    []float64 // untraced repetitions
	tracedWalls         []float64
	untracedM, tracedM  []map[string]float64
	attempted, failed   int
	problems, otherTops []string
}

func (s *summary) add(r rep) {
	if r.err != nil {
		s.attempted += opsPerRep[s.workload]
		s.failed += opsPerRep[s.workload]
		s.problems = append(s.problems, r.err.Error())
		return
	}
	res := r.res
	s.attempted += res.Ops
	s.failed += res.Failed
	s.problems = append(s.problems, res.Problems...)
	if r.traced {
		s.tracedWalls = append(s.tracedWalls, res.WallS)
		s.tracedM = append(s.tracedM, res.Metrics)
		return
	}
	if _, profiled := res.Metrics["ledger.other"]; profiled {
		if res.OtherTop != "" {
			s.otherTops = append(s.otherTops, res.OtherTop)
		}
		var sum float64
		for _, b := range ledgerBuckets {
			sum += res.Metrics["ledger."+b]
		}
		if math.Abs(sum-1) > ledgerTolerance {
			s.problems = append(s.problems, fmt.Sprintf("ledger shares sum to %v", sum))
		}
	}
	s.setups = append(s.setups, r.setup.Seconds())
	s.walls = append(s.walls, res.WallS)
	s.cpus = append(s.cpus, r.cpu.Seconds())
	var kb int64
	for _, k := range res.RSSKB {
		kb += k
	}
	s.rss = append(s.rss, float64(kb)/1024)
	s.untracedM = append(s.untracedM, res.Metrics)
}

func (s *summary) correct() bool { return s.failed == 0 && len(s.problems) == 0 }

// values returns the metrics the run reports, by name.
func (s *summary) values() map[string]float64 {
	v := map[string]float64{}
	if !s.traced {
		v["wall_s"] = median(s.walls)
		v["cpu_s"] = median(s.cpus)
		v["peak_rss_mb"] = median(s.rss)
		v["setup_s"] = median(s.setups)
		return v
	}
	for _, d := range perLayer {
		from := s.untracedM
		if decorated[d.name] {
			from = s.tracedM
		}
		var xs []float64
		for _, m := range from {
			xs = append(xs, m[d.name])
		}
		v[d.name] = median(xs)
	}
	v["traced.overhead_frac"] = 0
	if u := median(s.walls); u > 0 {
		v["traced.overhead_frac"] = median(s.tracedWalls)/u - 1
	}
	return v
}

func (s *summary) defs() []metricDef {
	if s.traced {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable report.
func (s *summary) print(w io.Writer) {
	if s.traced {
		fmt.Fprintf(w, "perfbench %s seed=%d trace=1: %d profiled and %d traced repetitions\n",
			s.workload, s.seed, len(s.walls), len(s.tracedWalls))
	} else {
		fmt.Fprintf(w, "perfbench %s seed=%d trace=0: %d repetitions, %d set-up samples\n",
			s.workload, s.seed, len(s.walls), len(s.setups))
	}
	v := s.values()
	samples := map[string][]float64{"wall_s": s.walls, "cpu_s": s.cpus, "peak_rss_mb": s.rss, "setup_s": s.setups}
	for _, d := range s.defs() {
		fmt.Fprintf(w, "  %-26s %14.6g %s", d.name, v[d.name], d.unit)
		if xs := samples[d.name]; !s.traced && len(xs) > 1 {
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "  (median of %d; quartiles %.6g..%.6g)", len(xs), q1, q3)
		}
		fmt.Fprintln(w)
	}
	frac := 0.0
	if s.attempted > 0 {
		frac = float64(s.failed) / float64(s.attempted)
	}
	fmt.Fprintf(w, "  %-26s %14.6g (ops %d, failed %d)\n", "ops_failed_frac", frac, s.attempted, s.failed)
	if s.traced {
		if v["dist.batches"] > 0 {
			var pct []float64
			for _, m := range s.tracedM {
				pct = append(pct, m["dist.batch_tail_pct"])
			}
			fmt.Fprintf(w, "  dist.batch_ms_tail is the p%.0f batch latency of %.0f batches (ten lie above it)\n",
				median(pct), v["dist.batches"])
		}
		for _, t := range s.otherTops {
			fmt.Fprintf(w, "  ledger.other top functions:%s\n", t)
		}
	}
	for _, p := range s.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (s *summary) fill(r *result, prefix string) {
	v := s.values()
	for _, d := range s.defs() {
		r.Metrics[prefix+d.name] = metricValue{v[d.name], d.unit}
	}
	r.Attempted += s.attempted
	r.Failed += s.failed
	r.Correct = r.Correct && s.correct()
}

func (s *summary) jsonLine(prefix string) string {
	r := &result{Correct: true, Metrics: map[string]metricValue{}}
	s.fill(r, prefix)
	b, _ := json.Marshal(r) // plain values; cannot fail
	return string(b)
}

// combined is the result line of `--workload all`, with each metric
// prefixed by its workload.
func combined(sums []*summary) string {
	r := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, s := range sums {
		s.fill(r, s.workload+".")
	}
	b, _ := json.Marshal(r) // plain values; cannot fail
	return string(b)
}

// record re-records the goldens from the current program: every
// workload untraced and traced (both segments of sim-long). It refuses
// to write anything if a traced result differs from the untraced one or
// fleet-quick's rendered output differs from the single-process one.
func record() error {
	p := defaultPaths()
	ctx := context.Background()
	digests := map[string]map[string]string{}
	cnts := map[string]map[string]float64{}
	texts := map[string]string{}
	for _, w := range workloads {
		segs := []int{0}
		if w == "sim-long" {
			segs = []int{0, 1}
		}
		for _, seg := range segs {
			key := goldenKey(w, seg)
			var outs []map[string]string
			for _, traced := range []bool{false, true} {
				r := spawn(ctx, p, w, int64(seg), traced, false, "-record")
				if r.err != nil {
					return r.err
				}
				outs = append(outs, r.res.Outputs)
				c := counts(r.res.Metrics)
				if cnts[key] == nil {
					cnts[key] = c
				}
				for name, v := range c {
					if prev, ok := cnts[key][name]; ok && prev != v {
						return fmt.Errorf("%s: %s is %v traced=%v but %v untraced", key, name, v, traced, prev)
					}
					cnts[key][name] = v
				}
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				return fmt.Errorf("%s: traced outputs differ from untraced", key)
			}
			if w == "paper-quick" || w == "fleet-quick" {
				for name, text := range outs[0] {
					if prev, ok := texts[name]; ok && prev != text {
						return fmt.Errorf("%s: %s differs from the single-process output", key, name)
					}
					texts[name] = text
				}
				continue
			}
			digests[key] = outs[0]
		}
	}
	if err := os.MkdirAll(filepath.Join(p.goldens, "experiments"), 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(texts))
	for name := range texts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(experimentFile(p.goldens, name), []byte(texts[name]), 0o644); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(p.goldens, "digests.json"), digests); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(p.goldens, "counts.json"), cnts); err != nil {
		return err
	}
	fmt.Println("recorded", strings.Join(names, " "), "and", len(digests), "digest sets")
	return nil
}

package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"

	"bce/internal/prof"
)

// ledger.go folds CPU-profile samples into the layers of the
// simulator. A sample belongs to the nearest frame, walking from the
// leaf toward the root, that names a layer; shared helpers (kernels,
// history registers, counters) are transparent and take the layer of
// their caller, so a perceptron kernel under the predictor counts as
// predictor time. Two runtime activities are split out first because
// no layer can see them: garbage collection (any GC entry point on the
// stack) and bulk copies (a copy routine as the leaf). Every sample
// lands in exactly one bucket, so the shares sum to 1; samples no rule
// claims go to "other", whose top functions are printed so the table
// can be kept current.

// ledgerBuckets lists the buckets in report order.
var ledgerBuckets = []string{
	"workload_setup", "workload_gen", "predictor", "confidence",
	"pipeline_sched", "pipeline_fetch", "pipeline_other", "cache",
	"runner", "dist", "copy", "gc", "other",
}

var gcEntries = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.sweepone":          true,
	"runtime.deductSweepCredit": true,
}

var copyLeaves = map[string]bool{
	"runtime.duffcopy":     true,
	"runtime.duffzero":     true,
	"runtime.memmove":      true,
	"runtime.typedmemmove": true,
}

var schedFuncs = map[string]bool{
	"(*Sim).issue": true, "(*Sim).complete": true, "(*Sim).ready": true,
}

var fetchFuncs = map[string]bool{
	"(*Sim).fetch": true, "(*Sim).fetchCycle": true, "(*Sim).fetchBranch": true,
}

// transparent packages are helpers whose time belongs to the caller.
var transparent = []string{
	"bce/internal/perceptron.", "bce/internal/history.", "bce/internal/metrics.",
	"bce/internal/telemetry.", "bce/internal/stats.", "bce/internal/config.",
	"bce/internal/gating.", "bce/internal/trace.",
}

// classify returns the ledger bucket of one sample's stack (leaf first).
func classify(stack []prof.Frame) string {
	for _, f := range stack {
		if gcEntries[f.Function] {
			return "gc"
		}
	}
	if len(stack) > 0 && copyLeaves[stack[0].Function] {
		return "copy"
	}
	for _, f := range stack {
		if f.Function == "bce/internal/workload.New" {
			return "workload_setup"
		}
	}
	fallback := ""
	for _, f := range stack {
		fn := f.Function
		if harness(fn) {
			// Time the benchmark's decorators spend (clock reads)
			// belongs to no layer of the program.
			return "other"
		}
		if !strings.HasPrefix(fn, "bce/") {
			continue
		}
		if b := layerOf(fn); b != "" {
			return b
		}
		if fallback == "" {
			fallback = transparentOwner(fn)
		}
	}
	if fallback != "" {
		return fallback
	}
	for _, f := range stack {
		if strings.HasPrefix(f.Function, "net/") || strings.HasPrefix(f.Function, "net.") {
			return "dist"
		}
	}
	return "other"
}

// harness reports whether fn is the benchmark's own code: package main
// in the built benchmark, bce/perfbench under go test.
func harness(fn string) bool {
	return strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "bce/perfbench.")
}

// layerOf maps a program function to its bucket, or "" for a
// transparent helper.
func layerOf(fn string) string {
	for _, p := range transparent {
		if strings.HasPrefix(fn, p) {
			return ""
		}
	}
	switch {
	case strings.HasPrefix(fn, "bce/internal/workload."):
		return "workload_gen"
	case strings.HasPrefix(fn, "bce/internal/predictor."):
		return "predictor"
	case strings.HasPrefix(fn, "bce/internal/confidence."):
		return "confidence"
	case strings.HasPrefix(fn, "bce/internal/pipeline."):
		m := strings.TrimPrefix(fn, "bce/internal/pipeline.")
		if i := strings.Index(m, ".func"); i > 0 {
			m = m[:i]
		}
		switch {
		case schedFuncs[m]:
			return "pipeline_sched"
		case fetchFuncs[m]:
			return "pipeline_fetch"
		}
		return "pipeline_other"
	case strings.HasPrefix(fn, "bce/internal/cache."), strings.HasPrefix(fn, "bce/internal/memory."):
		return "cache"
	case strings.HasPrefix(fn, "bce/internal/runner."), strings.HasPrefix(fn, "bce/internal/core."):
		return "runner"
	case strings.HasPrefix(fn, "bce/internal/dist."):
		return "dist"
	}
	// Any program package not listed here.
	return "other"
}

// transparentOwner is the bucket of a sample whose only program frames
// are helpers: kernels and history registers serve the estimators,
// trace types the workload.
func transparentOwner(fn string) string {
	switch {
	case strings.HasPrefix(fn, "bce/internal/perceptron."), strings.HasPrefix(fn, "bce/internal/history."):
		return "confidence"
	case strings.HasPrefix(fn, "bce/internal/trace."):
		return "workload_gen"
	}
	return "other"
}

// ledger is a CPU profile folded into buckets (sample values, ns).
type ledger struct {
	ns    map[string]int64
	total int64
	// unmatched holds the samples that fell into "other", kept for the
	// top-function diagnostic.
	unmatched []prof.Sample
	types     []prof.ValueType
}

func newLedger() *ledger { return &ledger{ns: map[string]int64{}} }

// addProfile folds one decoded profile into the ledger.
func (l *ledger) addProfile(p *prof.Profile) error {
	idx := -1
	for i, st := range p.SampleTypes {
		if st.Type == "cpu" {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("ledger: profile has no cpu sample type (%v)", p.SampleTypes)
	}
	l.types = p.SampleTypes
	for _, s := range p.Samples {
		v := s.Values[idx]
		b := classify(s.Stack)
		l.ns[b] += v
		l.total += v
		if b == "other" {
			l.unmatched = append(l.unmatched, s)
		}
	}
	return nil
}

// addRaw decodes a runtime/pprof CPU profile and folds it in.
func (l *ledger) addRaw(data []byte) error {
	p, err := prof.Parse(data)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return l.addProfile(p)
}

// shares returns each bucket's share of all samples.
func (l *ledger) shares() map[string]float64 {
	out := make(map[string]float64, len(ledgerBuckets))
	for _, b := range ledgerBuckets {
		if l.total > 0 {
			out[b] = float64(l.ns[b]) / float64(l.total)
		} else {
			out[b] = 0
		}
	}
	return out
}

// topOther lists the functions that hold most of the unmatched samples
// by flat value, via prof.Aggregate.
func (l *ledger) topOther(n int) string {
	if len(l.unmatched) == 0 {
		return ""
	}
	agg := prof.Aggregate(&prof.Profile{SampleTypes: l.types, Samples: l.unmatched})
	names := make([]string, 0, len(agg))
	for fn := range agg {
		names = append(names, fn)
	}
	sort.Slice(names, func(i, j int) bool {
		if agg[names[i]].Flat != agg[names[j]].Flat {
			return agg[names[i]].Flat > agg[names[j]].Flat
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	for i, fn := range names {
		if i == n || agg[fn].Flat == 0 {
			break
		}
		fmt.Fprintf(&b, " %s=%.1f%%", fn, 100*float64(agg[fn].Flat)/float64(l.total))
	}
	return b.String()
}

// cpuProfile is one process's CPU profile in progress.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	c := &cpuProfile{}
	if err := pprof.StartCPUProfile(&c.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return c, nil
}

// stop ends the profile and returns its encoded bytes.
func (c *cpuProfile) stop() []byte {
	pprof.StopCPUProfile()
	return c.buf.Bytes()
}

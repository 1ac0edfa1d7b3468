package core

import (
	"context"
	"fmt"
	"strings"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/metrics"
)

// -------------------------------------------------------------------
// Figures 4-7 — perceptron output density functions (§5.3)
// -------------------------------------------------------------------

// DensityResult holds a CB/MB output density pair for one estimator.
type DensityResult struct {
	// Bench is the benchmark (the paper uses gcc as its example).
	Bench string
	// Scheme is "cic" or "tnt".
	Scheme string
	// CB and MB are the output densities for correctly predicted and
	// mispredicted branches.
	CB, MB *metrics.Histogram
	// Regions is the three-region analysis of Figure 5 (for CIC):
	// counts of CB and MB above the reversal threshold, between the
	// thresholds, and below the gating threshold.
	Regions [3]RegionCount
}

// RegionCount tallies CB vs MB within one output region.
type RegionCount struct {
	Label  string
	CB, MB uint64
}

// Density regenerates the data behind Figures 4-7: the estimator
// output density functions for correctly predicted (CB) and
// mispredicted (MB) branches. scheme is "cic" (Figures 4-5) or "tnt"
// (Figures 6-7).
func Density(bench, scheme string, sz Sizes) (*DensityResult, error) {
	var mkEst func() confidence.Estimator
	switch scheme {
	case "cic":
		mkEst = func() confidence.Estimator { return confidence.NewCIC(0) }
	case "tnt":
		mkEst = func() confidence.Estimator { return confidence.NewTNT(75) }
	default:
		return nil, fmt.Errorf("core: unknown density scheme %q (want cic or tnt)", scheme)
	}
	r, err := RunFunctional(FunctionalConfig{
		Bench:         bench,
		MakeEstimator: mkEst,
		WarmupUops:    sz.FuncWarmup,
		MeasureUops:   sz.FuncMeasure,
		Segments:      sz.segments(),
		HistRange:     400,
		HistBin:       10,
	})
	if err != nil {
		return nil, err
	}
	res := &DensityResult{Bench: bench, Scheme: scheme, CB: r.CorrectHist, MB: r.WrongHist}
	// Figure 5's three regions for the CIC output (reversal above 30,
	// gating between -30 and 30, high confidence below -30 in the
	// paper's gcc example).
	lo, hi := -30, 30
	regions := []struct {
		label    string
		lo, hi   int
		haveLow  bool
		haveHigh bool
	}{
		{fmt.Sprintf("y > %d (reversal candidates)", hi), hi, 0, true, false},
		{fmt.Sprintf("%d <= y <= %d (gating candidates)", lo, hi), lo, hi, true, true},
		{fmt.Sprintf("y < %d (high confidence)", lo), 0, lo, false, true},
	}
	for i, reg := range regions {
		cb := countRange(r.CorrectHist, reg.lo, reg.hi, reg.haveLow, reg.haveHigh)
		mb := countRange(r.WrongHist, reg.lo, reg.hi, reg.haveLow, reg.haveHigh)
		res.Regions[i] = RegionCount{Label: reg.label, CB: cb, MB: mb}
	}
	return res, nil
}

func countRange(h *metrics.Histogram, lo, hi int, haveLow, haveHigh bool) uint64 {
	var n uint64
	for i, c := range h.Bins() {
		v := h.BinLo(i)
		if haveLow && v < lo {
			continue
		}
		if haveHigh && v > hi {
			continue
		}
		n += c
	}
	if !haveLow {
		u, _ := h.OutOfRange()
		n += u
	}
	if !haveHigh {
		_, o := h.OutOfRange()
		n += o
	}
	return n
}

// String renders the density data: the zoomed ASCII plots plus the
// three-region analysis and CSV-ready full data.
func (d *DensityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Output density for %s on %s (CB = correctly predicted, MB = mispredicted)\n",
		d.Scheme, d.Bench)
	fmt.Fprintf(&b, "\nRegion analysis:\n")
	for _, r := range d.Regions {
		ratio := "inf"
		if r.CB > 0 {
			ratio = fmt.Sprintf("%.2f", float64(r.MB)/float64(r.CB))
		}
		fmt.Fprintf(&b, "  %-36s CB=%-8d MB=%-8d MB/CB=%s\n", r.Label, r.CB, r.MB, ratio)
	}
	b.WriteString("\nCB density (ASCII, full range):\n")
	b.WriteString(d.CB.ASCII(50))
	b.WriteString("\nMB density (ASCII, full range):\n")
	b.WriteString(d.MB.ASCII(50))
	return b.String()
}

// CSV renders "bin,cb,mb" lines for external plotting.
func (d *DensityResult) CSV() string {
	var b strings.Builder
	b.WriteString("output,cb,mb\n")
	cb, mb := d.CB.Bins(), d.MB.Bins()
	for i := range cb {
		fmt.Fprintf(&b, "%d,%d,%d\n", d.CB.BinLo(i), cb[i], mb[i])
	}
	return b.String()
}

// -------------------------------------------------------------------
// Figures 8-9 — combined pipeline gating and branch reversal (§5.5)
// -------------------------------------------------------------------

// CombinedRow is one benchmark's bars in Figure 8/9.
type CombinedRow struct {
	Bench string
	// SpeedupPct is the performance gain versus the ungated,
	// unreversed baseline (positive = faster).
	SpeedupPct float64
	// UopReductionPct is the reduction in executed uops.
	UopReductionPct float64
}

// CombinedResult is the per-benchmark data of Figure 8 (40c4w) or
// Figure 9 (20c8w) plus the weighted average.
type CombinedResult struct {
	Machine         string
	Rows            []CombinedRow
	AvgSpeedupPct   float64
	AvgUopReduction float64
}

// Combined regenerates Figure 8/9: branch reversal for outputs above
// 0 plus pipeline gating (PL2) for outputs in [-75, 0), per benchmark,
// on the given machine.
func Combined(m config.Machine, sz Sizes) (*CombinedResult, error) {
	// The paper selects its two thresholds "based on empirical data"
	// from the output density functions (§5.5): reversal where the MB
	// curve overtakes CB, gating below that. On our synthetic
	// workloads the MB/CB crossover sits near +50 rather than the
	// paper's 0 (Figure 5 analysis), so the same methodology yields
	// (reversal=50, gate band [-75, 50)).
	estSpec := confidence.SpecCICWith(confidence.CICConfig{
		Lambda:   -75, // weakly-low band starts here (§5.5)
		Reversal: 50,  // strongly-low band: reverse above the MB/CB crossover
	})
	rows, err := mapBench(func(ctx context.Context, bench string) (CombinedRow, error) {
		base, err := runTiming(ctx, JobSpec{Bench: bench, Machine: m}, sz)
		if err != nil {
			return CombinedRow{}, err
		}
		r, err := runTiming(ctx, JobSpec{
			Bench: bench, Machine: m,
			Estimator:     estSpec,
			GateThreshold: 2,
			Reversal:      true,
		}, sz)
		if err != nil {
			return CombinedRow{}, err
		}
		return CombinedRow{
			Bench:           bench,
			SpeedupPct:      r.SpeedupPercent(base),
			UopReductionPct: r.UopReductionPercent(base),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &CombinedResult{Machine: m.Name, Rows: rows}
	for _, r := range rows {
		res.AvgSpeedupPct += r.SpeedupPct
		res.AvgUopReduction += r.UopReductionPct
	}
	n := float64(len(res.Rows))
	res.AvgSpeedupPct /= n
	res.AvgUopReduction /= n
	return res, nil
}

// String renders the figure data as a table plus ASCII bars.
func (c *CombinedResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Combined pipeline gating + branch reversal on %s\n", c.Machine)
	fmt.Fprintf(&b, "%-9s %10s %14s\n", "bench", "speedup%", "uop reduction%")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%-9s %9.1f%% %13.1f%%  %s\n", r.Bench, r.SpeedupPct, r.UopReductionPct,
			bar(r.UopReductionPct))
	}
	fmt.Fprintf(&b, "%-9s %9.1f%% %13.1f%%\n", "average", c.AvgSpeedupPct, c.AvgUopReduction)
	if c.Machine == "40c4w" {
		b.WriteString("(paper: ~10% average uop reduction at no average performance loss)\n")
	} else {
		b.WriteString("(paper: ~7% average uop reduction at no average performance loss)\n")
	}
	return b.String()
}

func bar(pct float64) string {
	n := int(pct)
	if n < 0 {
		n = 0
	}
	if n > 40 {
		n = 40
	}
	return strings.Repeat("#", n)
}

// -------------------------------------------------------------------
// §5.4.2 — estimator latency study
// -------------------------------------------------------------------

// LatencyResult compares gating with an ideal single-cycle estimator
// against the 9-cycle pipelined perceptron estimate.
type LatencyResult struct {
	Ideal, Pipelined GatingResult
}

// Latency regenerates the §5.4.2 study: CIC gating (λ=0, PL1, 40c4w)
// with a 1-cycle versus a 9-cycle confidence-estimation latency.
func Latency(sz Sizes) (*LatencyResult, error) {
	mk := func(latency int) variant {
		return variant{
			Label: fmt.Sprintf("latency=%d", latency),
			Of: func(bench string) JobSpec {
				return JobSpec{
					Bench: bench, Machine: config.Baseline40x4(),
					Estimator:     confidence.SpecCIC(0),
					GateThreshold: 1, GateLatency: latency,
				}
			},
		}
	}
	rows, err := gatingSweep(sz, func(bench string) JobSpec {
		return JobSpec{Bench: bench, Machine: config.Baseline40x4()}
	}, []variant{mk(1), mk(9)})
	if err != nil {
		return nil, err
	}
	return &LatencyResult{Ideal: rows[0], Pipelined: rows[1]}, nil
}

// String renders the study.
func (l *LatencyResult) String() string {
	var b strings.Builder
	b.WriteString("Estimator latency study (CIC λ=0, PL1, 40c4w)\n")
	fmt.Fprintf(&b, "  1-cycle (ideal):     U=%5.1f%%  P=%5.1f%%\n", l.Ideal.U, l.Ideal.P)
	fmt.Fprintf(&b, "  9-cycle (pipelined): U=%5.1f%%  P=%5.1f%%\n", l.Pipelined.U, l.Pipelined.P)
	b.WriteString("(paper: very little drop in uop reduction at similar performance loss)\n")
	return b.String()
}

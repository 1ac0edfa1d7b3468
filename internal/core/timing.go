package core

import (
	"context"

	"bce/internal/metrics"
	"bce/internal/predictor"
)

// Sizes groups the run lengths shared by the timing experiments. The
// paper runs 30M-instruction traces with 10M warmup (§4); the default
// here is scaled down to keep full-suite regeneration in minutes while
// staying well past estimator warmup. Override for higher fidelity.
type Sizes struct {
	// Warmup and Measure are uop counts for timing runs.
	Warmup, Measure uint64
	// FuncWarmup and FuncMeasure are uop counts for functional
	// (confidence-only) runs, which are much cheaper.
	FuncWarmup, FuncMeasure uint64
	// Segments is the number of independent trace segments to run and
	// merge per benchmark (the paper uses two, §4). Zero means one.
	Segments int
}

func (s Sizes) segments() int {
	if s.Segments < 1 {
		return 1
	}
	return s.Segments
}

// DefaultSizes returns the standard experiment sizes.
func DefaultSizes() Sizes {
	return Sizes{
		Warmup: 60_000, Measure: 200_000,
		FuncWarmup: 100_000, FuncMeasure: 400_000,
	}
}

// QuickSizes returns reduced sizes for tests and smoke runs.
func QuickSizes() Sizes {
	return Sizes{
		Warmup: 10_000, Measure: 30_000,
		FuncWarmup: 20_000, FuncMeasure: 60_000,
	}
}

// PredictorKind selects the baseline branch predictor for an
// experiment (§5.2 compares two).
type PredictorKind int

const (
	// BimodalGshare is the Table 1 baseline predictor.
	BimodalGshare PredictorKind = iota
	// GsharePerceptron is the better baseline of §5.2.
	GsharePerceptron
)

// String names the predictor kind.
func (k PredictorKind) String() string {
	if k == GsharePerceptron {
		return "gshare-perceptron"
	}
	return "bimodal-gshare"
}

func (k PredictorKind) make() predictor.Predictor {
	if k == GsharePerceptron {
		return predictor.NewGsharePerceptronHybrid()
	}
	return predictor.NewBaselineHybrid()
}

// runTiming runs one experiment job in this process, through
// ExecJob's validate → Key() → cached-run path, the same one remote
// workers take.
func runTiming(ctx context.Context, j JobSpec, sz Sizes) (metrics.Run, error) {
	return ExecJob(ctx, j.sized(sz))
}

// sized completes an experiment's job description: experiments leave
// out the run length, which is the sweep's, and usually the predictor,
// which defaults to the bimodal-gshare baseline.
func (j JobSpec) sized(sz Sizes) JobSpec {
	if j.Predictor == "" {
		j.Predictor = BimodalGshare.String()
	}
	j.Sizes = JobSizes{Warmup: sz.Warmup, Measure: sz.Measure, Segments: sz.segments()}
	return j
}

// GatingResult is one (U, P) measurement: the percentage reduction in
// executed uops and the percentage performance loss versus the ungated
// baseline, averaged across benchmarks as the paper reports.
type GatingResult struct {
	// Label identifies the configuration (e.g. "λ=0 PL1").
	Label string
	// U is the mean percentage reduction in executed uops.
	U float64
	// P is the mean percentage performance loss (negative = speedup).
	P float64
}

// variant pairs a display label with a per-benchmark timing job.
type variant struct {
	Label string
	Of    func(bench string) JobSpec
}

// gatingSweep measures U and P for each estimator configuration
// against per-benchmark ungated baselines, averaged across benchmarks
// as the paper reports. baselineOf must yield the ungated job for a
// benchmark; variants yields the gated jobs. Each benchmark is one
// runner job producing its per-variant (U, P) pairs; the average is a
// serial reduction over the ordered job results, so the output is
// bit-identical under any worker count.
func gatingSweep(sz Sizes, baselineOf func(bench string) JobSpec, variants []variant) ([]GatingResult, error) {
	type up struct{ u, p float64 }
	perBench, err := mapBench(func(ctx context.Context, bench string) ([]up, error) {
		base, err := runTiming(ctx, baselineOf(bench), sz)
		if err != nil {
			return nil, err
		}
		rows := make([]up, len(variants))
		for i, v := range variants {
			r, err := runTiming(ctx, v.Of(bench), sz)
			if err != nil {
				return nil, err
			}
			rows[i] = up{u: r.UopReductionPercent(base), p: r.PerfLossPercent(base)}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]GatingResult, len(variants))
	n := float64(len(perBench))
	for i, v := range variants {
		out[i].Label = v.Label
		for _, rows := range perBench {
			out[i].U += rows[i].u
			out[i].P += rows[i].p
		}
		out[i].U /= n
		out[i].P /= n
	}
	return out, nil
}

package core

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/metrics"
)

// plan_test.go pins the contracts distributed execution rests on:
// JobSpec.Key() must reproduce the cache keys already on disk
// (otherwise stored results, journals and manifests stop matching),
// and CollectJobs must enumerate the job space deterministically while
// excluding stored results.

// m40c4w is how the baseline machine prints inside a timing key.
const m40c4w = "{Name:40c4w Depth:40 FetchWidth:4 DispatchWidth:4 IssueWidth:6 RetireWidth:4 FrontendDepth:10 BranchResolveExtra:36 BranchPerCycle:2 ROB:128 LoadBufs:48 StoreBufs:32 IntSched:48 MemSched:24 FPSched:56 IntUnits:3 MemUnits:2 FPUnits:1 TraceCacheUops:12288 TraceCacheAssoc:8 TCMissPenalty:3}"

// TestJobSpecKeyMatchesTimingKey is the byte-identity cornerstone. The
// want keys are literals recorded from the in-process timing key
// function that existed before JobSpec.Key() became the only key
// path; an experiment's job (completed by sized, as runTiming does)
// must keep producing them, so existing result caches, checkpoint
// journals and manifests stay valid.
func TestJobSpecKeyMatchesTimingKey(t *testing.T) {
	base := config.Baseline40x4()
	cases := []struct {
		label string
		job   JobSpec
		sz    Sizes
		want  string
	}{
		{"ungated baseline", JobSpec{Bench: "gzip", Machine: base},
			Sizes{Warmup: 1000, Measure: 3000, Segments: 1},
			"timing|2|gzip|" + m40c4w + "|bimodal-gshare|none|0|0|false|false|false|1000|3000|1"},
		{"cic gated", JobSpec{
			Bench: "gcc", Machine: base,
			Estimator: confidence.SpecCIC(25), GateThreshold: 1,
		}, Sizes{Warmup: 1000, Measure: 3000, Segments: 2},
			"timing|2|gcc|" + m40c4w + "|bimodal-gshare|perceptron_cic-P128W8H32(λ=25)|1|0|false|false|false|1000|3000|2"},
		{"jrs", JobSpec{
			Bench: "vortex", Machine: base,
			Estimator: confidence.SpecJRS(14),
		}, Sizes{Warmup: 1000, Measure: 3000, Segments: 1},
			"timing|2|vortex|" + m40c4w + "|bimodal-gshare|jrs-enhanced(λ=14)|0|0|false|false|false|1000|3000|1"},
		{"tnt reversal", JobSpec{
			Bench: "twolf", Machine: base, Predictor: GsharePerceptron.String(),
			Estimator: confidence.SpecTNT(75), Reversal: true,
		}, Sizes{Warmup: 500, Measure: 2000, Segments: 1},
			"timing|2|twolf|" + m40c4w + "|gshare-perceptron|perceptron_tnt-P128W8H32(λ=75)|0|0|true|false|false|500|2000|1"},
		{"perfect speculative-train", JobSpec{
			Bench: "gzip", Machine: base,
			Estimator: confidence.SpecCIC(0), Perfect: true, SpeculativeTrain: true,
		}, Sizes{Warmup: 1000, Measure: 3000, Segments: 1},
			"timing|2|gzip|" + m40c4w + "|bimodal-gshare|perceptron_cic-P128W8H32(λ=0)|0|0|false|true|true|1000|3000|1"},
		{"explicit none spec", JobSpec{
			Bench: "gcc", Machine: base, Estimator: confidence.SpecNone(),
		}, Sizes{Warmup: 1000, Measure: 3000, Segments: 1},
			"timing|2|gcc|" + m40c4w + "|bimodal-gshare|none|0|0|false|false|false|1000|3000|1"},
		// Segments 0 normalizes to 1.
		{"zero segments", JobSpec{Bench: "gzip", Machine: base},
			Sizes{Warmup: 1000, Measure: 3000},
			"timing|2|gzip|" + m40c4w + "|bimodal-gshare|none|0|0|false|false|false|1000|3000|1"},
		{"promote-low jrs reversal", JobSpec{
			Bench: "mcf", Machine: base,
			Estimator: confidence.SpecPromoteLow(confidence.SpecJRS(15)), Reversal: true,
		}, Sizes{Warmup: 1000, Measure: 3000, Segments: 1},
			"timing|2|mcf|" + m40c4w + "|bimodal-gshare|promote-low(jrs-enhanced(λ=15))|0|0|true|false|false|1000|3000|1"},
		{"demote-strong cic gated", JobSpec{
			Bench: "gap", Machine: base,
			Estimator: confidence.SpecDemoteStrong(
				confidence.SpecCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50})),
			GateThreshold: 2,
		}, Sizes{Warmup: 1000, Measure: 3000, Segments: 1},
			"timing|2|gap|" + m40c4w + "|bimodal-gshare|demote-strong(perceptron_cic-P128W8H32(λ=-75,rev=50))|2|0|false|false|false|1000|3000|1"},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			got, err := tc.job.sized(tc.sz).Key()
			if err != nil {
				t.Fatalf("Key: %v", err)
			}
			if got != tc.want {
				t.Errorf("key drifted:\n got  %q\n want %q", got, tc.want)
			}
		})
	}
}

// TestJobSpecValidateRejects covers the hostile-wire-input guards.
func TestJobSpecValidateRejects(t *testing.T) {
	valid := func() JobSpec {
		return JobSpec{
			Bench:     "gzip",
			Machine:   config.Baseline40x4(),
			Predictor: "bimodal-gshare",
			Sizes:     JobSizes{Warmup: 1000, Measure: 3000, Segments: 1},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("baseline fixture invalid: %v", err)
	}
	cases := []struct {
		label  string
		mutate func(*JobSpec)
		want   string
	}{
		{"empty bench", func(j *JobSpec) { j.Bench = "" }, "bench"},
		{"unknown predictor", func(j *JobSpec) { j.Predictor = "oracle" }, "predictor"},
		// Only runTiming defaults the predictor; the wire must name it.
		{"empty predictor", func(j *JobSpec) { j.Predictor = "" }, "predictor"},
		{"bad estimator spec", func(j *JobSpec) { j.Estimator = &confidence.Spec{Kind: "quantum"} }, "unknown"},
		{"bad estimator wrap", func(j *JobSpec) {
			j.Estimator = &confidence.Spec{Kind: confidence.KindNone, Wrap: confidence.WrapPromoteLow}
		}, "wrap"},
		{"negative gating", func(j *JobSpec) { j.GateThreshold = -1 }, "gating"},
		{"zero measure", func(j *JobSpec) { j.Sizes.Measure = 0 }, "measure"},
		{"absurd warmup", func(j *JobSpec) { j.Sizes.Warmup = maxJobUops + 1 }, "uops"},
		{"zero segments", func(j *JobSpec) { j.Sizes.Segments = 0 }, "segments"},
		{"absurd segments", func(j *JobSpec) { j.Sizes.Segments = maxJobSegments + 1 }, "segments"},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			j := valid()
			tc.mutate(&j)
			err := j.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want error containing %q", err, tc.want)
			}
			if _, err := j.Key(); err == nil {
				t.Error("Key accepted an invalid job")
			}
		})
	}
}

// planSweep is a small two-bench sweep used by the CollectJobs tests.
// The benches slice controls iteration order so determinism across
// recording schedules can be pinned.
func planSweep(benches []string, lambdas []int) func() error {
	return func() error {
		for _, bench := range benches {
			for _, lambda := range lambdas {
				job := JobSpec{
					Bench: bench, Machine: config.Baseline40x4(),
					Estimator: confidence.SpecCIC(lambda), GateThreshold: 1,
				}
				sz := Sizes{Warmup: 1000, Measure: 3000, Segments: 1}
				if _, err := runTiming(context.Background(), job, sz); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestCollectJobsDeterministic: the same sweep visited in two different
// orders must produce identical plans — sorted keys, same jobs.
func TestCollectJobsDeterministic(t *testing.T) {
	ResetResultCache()
	defer ResetResultCache()
	lambdas := []int{0, 10, 25}
	forward, err := CollectJobs(planSweep([]string{"gzip", "gcc"}, lambdas))
	if err != nil {
		t.Fatal(err)
	}
	backward, err := CollectJobs(planSweep([]string{"gcc", "gzip"}, lambdas))
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * len(lambdas)
	if len(forward.Jobs) != want || len(forward.Keys) != want {
		t.Fatalf("plan has %d jobs / %d keys, want %d", len(forward.Jobs), len(forward.Keys), want)
	}
	if !sort.StringsAreSorted(forward.Keys) {
		t.Error("plan keys not sorted")
	}
	if !reflect.DeepEqual(forward.Keys, backward.Keys) {
		t.Errorf("plans differ across visit order:\n forward:  %v\n backward: %v", forward.Keys, backward.Keys)
	}
	if !reflect.DeepEqual(forward.Jobs, backward.Jobs) {
		t.Error("plan jobs differ across visit order")
	}
	// A recording pass must not leave zero-result garbage in the cache.
	if hits, misses := ResultCacheStats(); hits != 0 || misses != 0 {
		t.Errorf("recording pass touched the result cache: hits=%d misses=%d", hits, misses)
	}
	// Duplicate visits collapse: running the same sweep body twice in
	// one pass records each distinct job once.
	double, err := CollectJobs(func() error {
		if err := planSweep([]string{"gzip"}, lambdas)(); err != nil {
			return err
		}
		return planSweep([]string{"gzip"}, lambdas)()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(double.Jobs) != len(lambdas) {
		t.Errorf("duplicate visits not collapsed: %d jobs, want %d", len(double.Jobs), len(lambdas))
	}
}

// TestCollectJobsExcludesStored: a key with a result already on hand
// must count as Stored and stay out of the dispatch list — the
// resume-without-recomputation guarantee.
func TestCollectJobsExcludesStored(t *testing.T) {
	ResetResultCache()
	defer ResetResultCache()
	sweep := planSweep([]string{"gzip"}, []int{0, 10, 25})
	full, err := CollectJobs(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Jobs) != 3 || full.Stored != 0 {
		t.Fatalf("fresh plan: %d jobs, %d stored; want 3, 0", len(full.Jobs), full.Stored)
	}
	InjectResult(full.Keys[1], metrics.Run{Cycles: 500, Retired: 1234})
	resumed, err := CollectJobs(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stored != 1 {
		t.Errorf("Stored = %d, want 1", resumed.Stored)
	}
	if len(resumed.Jobs) != 2 {
		t.Errorf("resumed plan has %d jobs, want 2", len(resumed.Jobs))
	}
	for _, k := range resumed.Keys {
		if k == full.Keys[1] {
			t.Error("stored key re-dispatched")
		}
	}
}

// TestCollectJobsRejectsConcurrent: the planner is process-wide state,
// so a nested or overlapping CollectJobs must fail fast.
func TestCollectJobsRejectsConcurrent(t *testing.T) {
	_, err := CollectJobs(func() error {
		if _, nested := CollectJobs(func() error { return nil }); nested == nil {
			t.Error("nested CollectJobs accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The flag must be released afterwards.
	if _, err := CollectJobs(func() error { return nil }); err != nil {
		t.Errorf("planner flag leaked: %v", err)
	}
}

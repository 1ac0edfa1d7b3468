package core

// jobspec.go defines JobSpec, the one description of a timing
// simulation. Experiments build JobSpecs in-process, the planner
// records them, and the distributed sweep layer (internal/dist) ships
// them to worker processes as JSON. Every path derives the
// content-addressed cache key from the same Key() method and executes
// through ExecJob, so a worker files its result under exactly the key
// the coordinator's final aggregation pass looks up.

import (
	"context"
	"fmt"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/metrics"
	"bce/internal/pipeline"
	"bce/internal/runner"
	"bce/internal/workload"
)

// Job-size sanity bounds. JobSpecs arrive over the wire, so hostile or
// corrupt values must fail validation rather than wedge a worker in a
// near-infinite simulation. The paper's full-fidelity runs are 30M
// uops; the cap leaves two orders of magnitude of headroom.
const (
	maxJobUops     = 4 << 30
	maxJobSegments = 1024
)

// JobSizes carries the timing-run lengths a job needs (the functional
// lengths in Sizes never reach a timing key).
type JobSizes struct {
	// Warmup and Measure are uop counts (Sizes.Warmup / Sizes.Measure).
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	// Segments is the normalized segment count (>= 1).
	Segments int `json:"segments"`
}

// JobSpec is one timing simulation: a benchmark on a machine with a
// predictor, an optional estimator and the gating/reversal settings,
// plus the run sizes. Every field is plain data, so a JobSpec crosses
// process boundaries unchanged.
type JobSpec struct {
	// Bench is the workload name.
	Bench string `json:"bench"`
	// Machine is the full timing-model parameter set, embedded rather
	// than named so coordinator and worker need not agree on a preset
	// registry.
	Machine config.Machine `json:"machine"`
	// Predictor names the baseline predictor kind
	// ("bimodal-gshare" or "gshare-perceptron"). Experiments may leave
	// it empty for the bimodal-gshare baseline; the wire form must name
	// it.
	Predictor string `json:"predictor"`
	// Estimator declaratively describes the confidence estimator; nil
	// means none (the ungated baseline).
	Estimator *confidence.Spec `json:"estimator,omitempty"`
	// GateThreshold and GateLatency mirror gating.Policy.
	GateThreshold int `json:"gate_threshold,omitempty"`
	GateLatency   int `json:"gate_latency,omitempty"`
	// Reversal enables branch reversal, Perfect replaces the predictor
	// with an oracle, and SpeculativeTrain trains the estimator at
	// fetch instead of retirement (the training-site ablation).
	Reversal         bool `json:"reversal,omitempty"`
	Perfect          bool `json:"perfect,omitempty"`
	SpeculativeTrain bool `json:"speculative_train,omitempty"`
	// Sizes is the run length. Experiments leave it zero; runTiming
	// fills it from the sweep's Sizes.
	Sizes JobSizes `json:"sizes"`
}

// predictorKindFromString is the inverse of PredictorKind.String.
func predictorKindFromString(s string) (PredictorKind, error) {
	switch s {
	case BimodalGshare.String():
		return BimodalGshare, nil
	case GsharePerceptron.String():
		return GsharePerceptron, nil
	}
	return 0, fmt.Errorf("core: unknown predictor kind %q", s)
}

// Validate rejects a JobSpec that could not have come from a real
// sweep: unknown predictor, inconsistent estimator spec, negative
// gating, or run sizes outside sanity bounds. Workers validate every
// decoded job before executing it.
func (j JobSpec) Validate() error {
	if j.Bench == "" {
		return fmt.Errorf("core: job spec: empty bench")
	}
	if err := j.Machine.Validate(); err != nil {
		return fmt.Errorf("core: job spec: machine: %w", err)
	}
	if _, err := predictorKindFromString(j.Predictor); err != nil {
		return fmt.Errorf("core: job spec: %w", err)
	}
	if err := j.Estimator.Validate(); err != nil {
		return fmt.Errorf("core: job spec: %w", err)
	}
	if j.GateThreshold < 0 || j.GateLatency < 0 {
		return fmt.Errorf("core: job spec: negative gating policy (%d, %d)", j.GateThreshold, j.GateLatency)
	}
	if j.Sizes.Measure == 0 {
		return fmt.Errorf("core: job spec: zero measure length")
	}
	if j.Sizes.Warmup > maxJobUops || j.Sizes.Measure > maxJobUops {
		return fmt.Errorf("core: job spec: run length %d/%d exceeds %d uops",
			j.Sizes.Warmup, j.Sizes.Measure, uint64(maxJobUops))
	}
	if j.Sizes.Segments < 1 || j.Sizes.Segments > maxJobSegments {
		return fmt.Errorf("core: job spec: segments %d outside [1,%d]", j.Sizes.Segments, maxJobSegments)
	}
	return nil
}

// Key validates the job and canonicalizes its full configuration into
// its content-addressed cache key. The estimator is identified by
// building one instance and taking its Name(), which encodes geometry,
// thresholds and any band wrap; estimator constructors are cheap next
// to a timing simulation.
func (j JobSpec) Key() (string, error) {
	if err := j.Validate(); err != nil {
		return "", err
	}
	est, err := j.Estimator.Build()
	if err != nil {
		return "", err
	}
	name := "none"
	if est != nil {
		name = est.Name()
	}
	return runner.KeyOf(
		"timing", 2, // schema version: bump when Run or the sim semantics change (2: Run.Segments)
		j.Bench,
		fmt.Sprintf("%+v", j.Machine),
		j.Predictor,
		name,
		j.GateThreshold, j.GateLatency,
		j.Reversal, j.Perfect, j.SpeculativeTrain,
		j.Sizes.Warmup, j.Sizes.Measure, j.Sizes.Segments,
	), nil
}

// ExecJob validates and executes one job in this process through the
// result cache: the ungated baseline a dozen tables share runs once,
// not once per caller; the result lands in any attached store; and the
// job observer sees it. Experiments reach it through runTiming, worker
// processes call it for every job in a batch. The context classifies
// the enclosing runner job for progress ETAs (cache hit vs fresh
// simulation).
func ExecJob(ctx context.Context, j JobSpec) (metrics.Run, error) {
	key, err := j.Key()
	if err != nil {
		return metrics.Run{}, err
	}
	// A collecting (plan-mode) sweep records the job instead of running
	// it; the zero result it returns feeds aggregation arithmetic whose
	// output the planner discards.
	if planRecording() {
		planRecord(j, key)
		return metrics.Run{}, nil
	}
	fresh := false
	r, err := resultCache.Do(key, func() (metrics.Run, error) {
		fresh = true
		return j.simulate()
	})
	// A job is "cached" only if every simulation it asked for was
	// served from the cache; one fresh run re-latches it as computed.
	if fresh {
		runner.MarkComputed(ctx)
	} else {
		runner.MarkCached(ctx)
	}
	if err == nil {
		run := r
		observeJob(JobRecord{Key: key, Kind: "timing", Bench: j.Bench, Cached: !fresh, Run: &run})
	}
	return r, err
}

// simulate executes a validated job. When it requests multiple
// segments, each runs on a fresh machine over an independent
// runtime-randomness stream of the same static program — the segment
// index flows into the workload's seed derivation, so every
// (config, segment) job draws deterministic, order-independent
// randomness — and the counters are merged (the paper's
// two-segments-per-benchmark methodology, §4).
func (j JobSpec) simulate() (metrics.Run, error) {
	prof, err := workload.ByName(j.Bench)
	if err != nil {
		return metrics.Run{}, err
	}
	kind, err := predictorKindFromString(j.Predictor)
	if err != nil {
		return metrics.Run{}, err
	}
	var merged metrics.Run
	for seg := 0; seg < j.Sizes.Segments; seg++ {
		p := prof
		p.Segment = seg
		opt := pipeline.Options{
			Machine:            j.Machine,
			Perfect:            j.Perfect,
			Reversal:           j.Reversal,
			Gating:             gating.Policy{Threshold: j.GateThreshold, Latency: j.GateLatency},
			SpeculativeCETrain: j.SpeculativeTrain,
		}
		if !j.Perfect {
			opt.Predictor = kind.make()
		}
		if opt.Estimator, err = j.Estimator.Build(); err != nil {
			return metrics.Run{}, err
		}
		sim := pipeline.New(opt, workload.New(p))
		sim.Run(j.Sizes.Warmup)
		merged.Merge(sim.Run(j.Sizes.Measure))
	}
	return merged, nil
}

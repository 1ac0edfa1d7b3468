package metrics

import (
	"encoding/json"
	"fmt"
)

// Run accumulates the timing-simulation counters a single simulation
// produces; every paper table derives from pairs (or triples) of Runs.
type Run struct {
	// Cycles is the simulated cycle count to retire the configured
	// number of uops.
	Cycles uint64
	// Retired counts architecturally retired uops (correct path only).
	Retired uint64
	// Executed counts uops dispatched into the execution core
	// (renamed and allocated), including wrong-path uops later
	// squashed — the work pipeline gating exists to avoid. "Reduction
	// in total uops executed" (U) compares this across runs.
	Executed uint64
	// Fetched counts all uops fetched, right or wrong path.
	Fetched uint64
	// WrongPathExecuted counts Executed uops fetched down a wrong path.
	// It is taken at dispatch, not at squash, so it includes wrong-path
	// uops still in flight when the run ends.
	WrongPathExecuted uint64
	// RetiredBranches counts retired conditional branches.
	RetiredBranches uint64
	// Mispredicts counts retired conditional branches whose final
	// front-end direction (after any reversal) was wrong.
	Mispredicts uint64
	// Reversals counts branches whose prediction was reversed;
	// ReversalsGood counts reversals that corrected a would-be
	// misprediction.
	Reversals     uint64
	ReversalsGood uint64
	// GatedCycles counts cycles fetch was stalled by pipeline gating.
	GatedCycles uint64
	// GateEvents counts distinct fetch-stall episodes.
	GateEvents uint64
	// Segments counts the independently simulated trace segments merged
	// into this Run: 1 for a single simulation, summed by Merge. Run
	// manifests use it to tell a merged multi-segment result from a
	// single-segment one without out-of-band context.
	Segments uint64
	// Confusion is the confidence confusion matrix over retired
	// conditional branches (pre-reversal prediction vs estimate).
	Confusion Confusion
}

// IPC returns retired uops per cycle.
func (r Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// MispredictsPer1KUops returns the paper's Table 2 rate: mispredicted
// branches per 1000 retired uops.
func (r Run) MispredictsPer1KUops() float64 {
	if r.Retired == 0 {
		return 0
	}
	return 1000 * float64(r.Mispredicts) / float64(r.Retired)
}

// WastePercent returns the percentage increase in executed uops versus
// a mispredict-free run that executes exactly `perfect` uops:
// Table 2's "% increase in uops executed due to branch mispredictions".
func (r Run) WastePercent(perfect uint64) float64 {
	if perfect == 0 {
		return 0
	}
	return 100 * (float64(r.Executed)/float64(perfect) - 1)
}

// UopReductionPercent returns U: the percentage reduction in executed
// uops relative to a baseline (ungated) run of the same machine and
// workload.
func (r Run) UopReductionPercent(base Run) float64 {
	if base.Executed == 0 {
		return 0
	}
	return 100 * (1 - float64(r.Executed)/float64(base.Executed))
}

// PerfLossPercent returns P: the percentage performance loss versus a
// baseline run retiring the same uop count. Negative values are
// speedups (Figures 8-9 report speedup = -P).
func (r Run) PerfLossPercent(base Run) float64 {
	if base.Cycles == 0 || r.Cycles == 0 {
		return 0
	}
	baseIPC, ipc := base.IPC(), r.IPC()
	if baseIPC == 0 {
		return 0
	}
	return 100 * (1 - ipc/baseIPC)
}

// SpeedupPercent returns the percentage speedup versus base (the
// orientation Figures 8-9 plot).
func (r Run) SpeedupPercent(base Run) float64 { return -r.PerfLossPercent(base) }

// Canonical returns the run's deterministic byte encoding (JSON with
// struct field order). Two runs are byte-identical under Canonical iff
// every counter matches — the form the telemetry regression tests
// compare.
func (r Run) Canonical() ([]byte, error) { return json.Marshal(r) }

// Merge accumulates another run's counters (used to aggregate the two
// trace segments per benchmark, §4).
func (r *Run) Merge(o Run) {
	r.Cycles += o.Cycles
	r.Retired += o.Retired
	r.Executed += o.Executed
	r.Fetched += o.Fetched
	r.WrongPathExecuted += o.WrongPathExecuted
	r.RetiredBranches += o.RetiredBranches
	r.Mispredicts += o.Mispredicts
	r.Reversals += o.Reversals
	r.ReversalsGood += o.ReversalsGood
	r.GatedCycles += o.GatedCycles
	r.GateEvents += o.GateEvents
	r.Segments += o.Segments
	r.Confusion.Merge(o.Confusion)
}

// String summarizes the run.
func (r Run) String() string {
	return fmt.Sprintf("cycles=%d retired=%d executed=%d (wrong-path %d) IPC=%.3f misp/Kuop=%.2f gated=%d",
		r.Cycles, r.Retired, r.Executed, r.WrongPathExecuted, r.IPC(), r.MispredictsPer1KUops(), r.GatedCycles)
}

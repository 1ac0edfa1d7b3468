package pipeline

import (
	"bce/internal/confidence"
	"bce/internal/config"
)

// batching.go decides when the simulator may hand the confidence
// estimator a whole cycle's branches in one call and applies the
// deferred results. It keeps the batched-call protocol of
// confidence.BatchEstimator/BatchTrainer, not a faster kernel:
// PerceptronCIC answers a batch with the same per-branch Estimate and
// Train calls. Batching is a pure execution-strategy change: it is
// enabled only when it is provably observation-identical to the
// sequential Estimate/Train protocol, so simulation results never
// depend on whether the estimator implements the batch interfaces.
//
// Retire-side training batches whenever the estimator supports it,
// telemetry is off and training happens at retirement: within
// retire() nothing reads estimator state between the Train calls of
// one cycle, so deferring them to one in-order TrainBatch at the end
// of the stage is exact (BatchTrainer's contract).
//
// Fetch-side estimation additionally requires reversal to be off and
// the estimator not to be a TraceOracle. With reversal off, nothing in
// the remainder of the fetch cycle depends on the token: the final
// direction is the prediction, so misprediction recovery and the
// wrong-path switch are decided without it, and the only token
// consumers — the gating arm and retire-time training — tolerate
// deferral to the end of the stage. The gating controller is only read
// at the top of fetch (Stalled) and resolved in complete, so arming in
// fetch order at the end of fetch leaves its state evolution
// untouched. A TraceOracle must be fed ground truth immediately before
// each Estimate, which is inherently sequential.

// initBatching resolves the batch eligibility rules against the
// estimator's capabilities and preallocates the per-cycle request
// columns. Telemetry disables batching outright: the Instrument
// wrapper emits one event per call, which batched calls would not
// reproduce (and the wrapper hides the batch interfaces anyway).
func (s *Sim) initBatching(m config.Machine) {
	if s.sink != nil || s.opt.SpeculativeCETrain {
		return
	}
	if bt, ok := s.est.(confidence.BatchTrainer); ok {
		s.trainBatcher = bt
		s.trainReqs = make([]confidence.TrainReq, 0, m.RetireWidth)
	}
	_, oracle := s.est.(confidence.TraceOracle)
	if be, ok := s.est.(confidence.BatchEstimator); ok && !oracle && !s.opt.Reversal {
		s.estBatcher = be
		s.estPCs = make([]uint64, 0, m.BranchPerCycle)
		s.estPred = make([]bool, 0, m.BranchPerCycle)
		s.estToks = make([]confidence.Token, m.BranchPerCycle)
		s.estIdx = make([]int32, 0, m.BranchPerCycle)
	}
}

// deferEstimate queues one fetched conditional branch for the
// end-of-fetch batched estimate. Only called on the estBatcher path,
// so the cycle's control flow past this point is prediction-only.
func (s *Sim) deferEstimate(e *inflight, idx int32) {
	s.estPCs = append(s.estPCs, e.u.PC)
	s.estPred = append(s.estPred, e.predTaken)
	s.estIdx = append(s.estIdx, idx)
}

// applyEstimates scores the cycle's deferred fetch group in one
// estimator call, stores each token with its branch and arms the
// gating counter for low-confidence estimates, in fetch order.
func (s *Sim) applyEstimates() {
	n := len(s.estIdx)
	s.estBatcher.EstimateBatch(s.estPCs, s.estPred, s.estToks[:n])
	armable := s.gate.Enabled()
	for i, idx := range s.estIdx {
		e := &s.pool[idx]
		e.tok = s.estToks[i]
		// Reversal is off on this path, so every low band gates.
		if armable && e.tok.Band.Low() {
			s.gate.OnFetch(e.seq, s.cycle)
			e.gated = true
		}
	}
	s.estPCs = s.estPCs[:0]
	s.estPred = s.estPred[:0]
	s.estIdx = s.estIdx[:0]
}

// applyTrains hands the cycle's retire group to the estimator in one
// in-order call.
func (s *Sim) applyTrains() {
	s.trainBatcher.TrainBatch(s.trainReqs)
	s.trainReqs = s.trainReqs[:0]
}

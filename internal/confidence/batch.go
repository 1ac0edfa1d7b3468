package confidence

// batch.go defines the optional batched estimator protocol: a cycle's
// fetch group (or retire group) of conditional branches is handed to
// the estimator in one call instead of N. The batched entry points are
// contracts of exact equivalence: calling EstimateBatch/TrainBatch
// must leave the estimator in the same state and produce the same
// tokens as the same requests issued one at a time through
// Estimate/Train, in order. PerceptronCIC meets it by being exactly
// that loop; a fetch or retire group averages little more than one
// branch, so a batched table kernel does not pay.

// TrainReq is one deferred Train call: the arguments Train would have
// received for a retiring branch.
type TrainReq struct {
	PC           uint64
	Tok          Token
	Mispredicted bool
	Taken        bool
}

// BatchEstimator is implemented by estimators that can classify a
// group of same-cycle predictions in one call.
type BatchEstimator interface {
	Estimator
	// EstimateBatch is equivalent to toks[i] = Estimate(pcs[i],
	// predTaken[i]) for each i in order. All three slices share a
	// length. Because estimators only advance state in Train, the
	// requests see identical history, exactly as sequential
	// same-cycle Estimate calls would.
	EstimateBatch(pcs []uint64, predTaken []bool, toks []Token)
}

// BatchTrainer is implemented by estimators that can absorb a group of
// retirements in one call.
type BatchTrainer interface {
	Estimator
	// TrainBatch is equivalent to Train(r.PC, r.Tok, r.Mispredicted,
	// r.Taken) for each request in order.
	TrainBatch(reqs []TrainReq)
}

// EstimateBatch implements BatchEstimator as an in-order loop over
// Estimate.
func (c *PerceptronCIC) EstimateBatch(pcs []uint64, predTaken []bool, toks []Token) {
	for i, pc := range pcs {
		toks[i] = c.Estimate(pc, predTaken[i])
	}
}

// TrainBatch implements BatchTrainer as an in-order loop over Train.
func (c *PerceptronCIC) TrainBatch(reqs []TrainReq) {
	for i := range reqs {
		r := &reqs[i]
		c.Train(r.PC, r.Tok, r.Mispredicted, r.Taken)
	}
}

var (
	_ BatchEstimator = (*PerceptronCIC)(nil)
	_ BatchTrainer   = (*PerceptronCIC)(nil)
)

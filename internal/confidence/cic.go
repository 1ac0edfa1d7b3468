package confidence

import (
	"fmt"
	"math"

	"bce/internal/perceptron"
)

// PerceptronCIC is the paper's contribution (§3): a table of
// perceptrons indexed by branch address whose inputs are the global
// branch history and whose training target is whether the branch was
// Correctly or InCorrectly predicted. A positive output predicts the
// execution is likely on the wrong path:
//
//	y >= Reversal  ⇒ strongly low confident (reverse the prediction)
//	y >= Lambda    ⇒ weakly low confident  (pipeline-gating candidate)
//	y <  Lambda    ⇒ high confidence
//
// The default geometry is the paper's 4 KB estimator: 128 perceptrons,
// 32-bit global history, 8-bit weights.
type PerceptronCIC struct {
	tbl      *perceptron.Table
	ghr      uint64
	hlen     int
	lambda   int
	reversal int
	trainT   int
}

// CICConfig parameterizes a PerceptronCIC.
type CICConfig struct {
	// Entries, HistoryLen, WeightBits set the table geometry; defaults
	// 128, 32, 8 (the paper's P128W8H32).
	Entries    int
	HistoryLen int
	WeightBits int
	// Lambda is the low-confidence threshold λ: output >= Lambda is
	// classified low confidence. The paper sweeps {25, 0, -25, -50}.
	// Default 0. Note zero is a meaningful value here, so Lambda is
	// always honored as given.
	Lambda int
	// Reversal is the strongly-low-confidence threshold; output >=
	// Reversal reverses the branch (§5.5 uses 0 with Lambda = -75).
	// Leave at 0 value DisableReversal (the default from NewCIC) to
	// run gating-only.
	Reversal int
	// TrainThreshold is T in the paper's update rule: train whenever
	// the classification was wrong or |y| <= T. Default 75
	// (Jimenez's θ(32) = ⌊1.93·32+14⌋, a good fit empirically).
	TrainThreshold int
}

// DisableReversal as CICConfig.Reversal turns branch reversal off.
const DisableReversal = math.MaxInt32

// NewCIC returns the paper's default 4 KB estimator with the given
// low-confidence threshold λ and reversal disabled.
func NewCIC(lambda int) *PerceptronCIC {
	return NewCICWith(CICConfig{Lambda: lambda, Reversal: DisableReversal})
}

// NewCICWith returns an estimator with explicit configuration; zero
// geometry fields take the paper defaults.
func NewCICWith(cfg CICConfig) *PerceptronCIC {
	if cfg.Entries == 0 {
		cfg.Entries = 128
	}
	if cfg.HistoryLen == 0 {
		cfg.HistoryLen = 32
	}
	if cfg.WeightBits == 0 {
		cfg.WeightBits = 8
	}
	if cfg.TrainThreshold == 0 {
		cfg.TrainThreshold = 75
	}
	if cfg.HistoryLen > 64 {
		panic(fmt.Sprintf("confidence: CIC history %d > 64", cfg.HistoryLen))
	}
	return &PerceptronCIC{
		tbl:      perceptron.NewTable(cfg.Entries, cfg.HistoryLen, cfg.WeightBits),
		hlen:     cfg.HistoryLen,
		lambda:   cfg.Lambda,
		reversal: cfg.Reversal,
		trainT:   cfg.TrainThreshold,
	}
}

// Lambda returns the low-confidence threshold.
func (c *PerceptronCIC) Lambda() int { return c.lambda }

// Reversal returns the strongly-low-confidence threshold.
func (c *PerceptronCIC) Reversal() int { return c.reversal }

// TrainThreshold returns T.
func (c *PerceptronCIC) TrainThreshold() int { return c.trainT }

// SizeBytes returns the estimator's hardware storage budget.
func (c *PerceptronCIC) SizeBytes() int { return c.tbl.SizeBytes() }

// Geometry returns (entries, historyLen, weightBits), the PiWjHk label
// components of Table 6.
func (c *PerceptronCIC) Geometry() (entries, hlen, bits int) {
	return c.tbl.Entries(), c.tbl.HistoryLen(), c.tbl.WeightBits()
}

// Output returns the raw perceptron output for pc against the current
// history, without classifying. Density studies (Figures 4-7) use it.
func (c *PerceptronCIC) Output(pc uint64) int {
	return c.tbl.Output(pc, c.ghr)
}

// Estimate implements Estimator.
func (c *PerceptronCIC) Estimate(pc uint64, predictedTaken bool) Token {
	y := c.tbl.Output(pc, c.ghr)
	band := High
	switch {
	case y >= c.reversal:
		band = StrongLow
	case y >= c.lambda:
		band = WeakLow
	}
	return Token{Output: y, Band: band, Hist: c.ghr, PredTaken: predictedTaken}
}

// Train implements Estimator, applying the paper's update rule:
//
//	p = +1 if mispredicted else -1
//	c = +1 if classified low-confidence else -1
//	if sign(c) != sign(p) || |y| <= T:  w[i] += p·x[i]  (saturating)
//
// then shifts the resolved direction into the history register. The
// history snapshot from the token is replayed so training sees exactly
// the inputs the estimate saw.
func (c *PerceptronCIC) Train(pc uint64, tok Token, mispredicted, taken bool) {
	p := -1
	if mispredicted {
		p = 1
	}
	lowConf := tok.Band.Low()
	wrongClass := lowConf != mispredicted // sign(c) != sign(p)
	y := tok.Output
	if wrongClass || abs(y) <= c.trainT {
		c.tbl.Train(pc, tok.Hist, p)
	}
	c.ghr <<= 1
	if taken {
		c.ghr |= 1
	}
	if c.hlen < 64 {
		c.ghr &= (1 << uint(c.hlen)) - 1
	}
}

// Name implements Estimator. The name encodes every configuration
// knob that changes behaviour — geometry, λ, the reversal threshold
// and a non-default training threshold T — because result caches key
// simulations by estimator name; two differently-behaving estimators
// must never share one.
func (c *PerceptronCIC) Name() string {
	e, h, b := c.Geometry()
	var opts string
	if c.reversal < DisableReversal {
		opts += fmt.Sprintf(",rev=%d", c.reversal)
	}
	if c.trainT != 75 {
		opts += fmt.Sprintf(",T=%d", c.trainT)
	}
	return fmt.Sprintf("perceptron_cic-P%dW%dH%d(λ=%d%s)", e, b, h, c.lambda, opts)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

var _ Estimator = (*PerceptronCIC)(nil)

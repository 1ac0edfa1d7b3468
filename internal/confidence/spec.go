package confidence

import "fmt"

// Spec is a declarative, JSON-serializable estimator description: the
// wire-expressible counterpart of the constructor closures the
// experiment sweeps traditionally carry. A Spec travels inside
// distributed job batches (internal/dist), so it must round-trip
// through JSON without losing any knob that changes simulated
// behaviour — exactly the knobs Name() encodes into cache keys.
//
// Exactly one of the config pointers matching Kind must be set (none
// for KindNone). Use the Spec* constructors rather than building the
// struct by hand.
type Spec struct {
	// Kind selects the estimator family: "none", "jrs", "cic", "tnt".
	Kind string `json:"kind"`
	// JRS, CIC and TNT carry the family's full configuration. The
	// config structs already default zero fields in their constructors;
	// a Spec freezes the caller's literal values and lets New* apply
	// the same defaulting on every machine, so a Spec built on the
	// coordinator and one decoded on a worker construct byte-identical
	// estimators.
	JRS *JRSConfig `json:"jrs,omitempty"`
	CIC *CICConfig `json:"cic,omitempty"`
	TNT *TNTConfig `json:"tnt,omitempty"`
	// Wrap optionally remaps the built estimator's bands: WrapPromoteLow
	// (PromoteLow) or WrapDemoteStrong (DemoteStrong). Empty means the
	// bare estimator. It is one flat field, not a nested Spec: a wrap
	// applies to the family configured above and never to another wrap.
	Wrap string `json:"wrap,omitempty"`
}

// Spec kinds.
const (
	KindNone = "none"
	KindJRS  = "jrs"
	KindCIC  = "cic"
	KindTNT  = "tnt"
)

// Spec wraps.
const (
	WrapPromoteLow   = "promote-low"
	WrapDemoteStrong = "demote-strong"
)

// SpecNone describes "no estimator" (the ungated baseline runs).
func SpecNone() *Spec { return &Spec{Kind: KindNone} }

// SpecJRS describes the paper's baseline estimator: enhanced JRS with
// default geometry and threshold lambda (NewEnhancedJRS).
func SpecJRS(lambda int) *Spec {
	return &Spec{Kind: KindJRS, JRS: &JRSConfig{Lambda: lambda, Enhanced: true}}
}

// SpecJRSWith describes a fully configured JRS estimator (NewJRS).
func SpecJRSWith(cfg JRSConfig) *Spec { return &Spec{Kind: KindJRS, JRS: &cfg} }

// SpecCIC describes the paper's default 4 KB perceptron estimator with
// threshold lambda and reversal disabled (NewCIC).
func SpecCIC(lambda int) *Spec {
	return &Spec{Kind: KindCIC, CIC: &CICConfig{Lambda: lambda, Reversal: DisableReversal}}
}

// SpecCICWith describes a fully configured CIC estimator (NewCICWith).
func SpecCICWith(cfg CICConfig) *Spec { return &Spec{Kind: KindCIC, CIC: &cfg} }

// SpecTNT describes a perceptron_tnt estimator with default geometry
// and |y| threshold lambda (NewTNT).
func SpecTNT(lambda int) *Spec {
	return &Spec{Kind: KindTNT, TNT: &TNTConfig{Lambda: lambda}}
}

// SpecTNTWith describes a fully configured TNT estimator (NewTNTWith).
func SpecTNTWith(cfg TNTConfig) *Spec { return &Spec{Kind: KindTNT, TNT: &cfg} }

// SpecPromoteLow describes PromoteLow{Inner: inner}: a copy of inner
// whose low-confidence estimates all become StrongLow.
func SpecPromoteLow(inner *Spec) *Spec { return inner.wrapped(WrapPromoteLow) }

// SpecDemoteStrong describes DemoteStrong{Inner: inner}: a copy of
// inner whose StrongLow estimates become WeakLow.
func SpecDemoteStrong(inner *Spec) *Spec { return inner.wrapped(WrapDemoteStrong) }

func (s *Spec) wrapped(wrap string) *Spec {
	w := *s
	w.Wrap = wrap
	return &w
}

// Validate checks that the Spec is internally consistent: a known
// kind, the matching config present, and the others absent. A nil Spec
// is valid and means "no estimator".
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	set := 0
	for _, p := range []bool{s.JRS != nil, s.CIC != nil, s.TNT != nil} {
		if p {
			set++
		}
	}
	switch s.Kind {
	case KindNone:
		if set != 0 {
			return fmt.Errorf("confidence: spec kind %q must carry no config", s.Kind)
		}
	case KindJRS:
		if s.JRS == nil || set != 1 {
			return fmt.Errorf("confidence: spec kind %q needs exactly the jrs config", s.Kind)
		}
		if s.JRS.CounterBits < 0 || s.JRS.CounterBits > 8 {
			return fmt.Errorf("confidence: spec jrs counter bits %d outside [0,8]", s.JRS.CounterBits)
		}
		// Lambda must fit the counter range (NewJRS panics otherwise);
		// apply the constructor's zero-means-default before bounding.
		bits := s.JRS.CounterBits
		if bits == 0 {
			bits = 4
		}
		if maxL := 1<<bits - 1; s.JRS.Lambda < 0 || s.JRS.Lambda > maxL {
			return fmt.Errorf("confidence: spec jrs lambda %d outside [0,%d]", s.JRS.Lambda, maxL)
		}
		if err := checkGeometry("jrs", s.JRS.Entries, s.JRS.HistoryLen, 0); err != nil {
			return err
		}
	case KindCIC:
		if s.CIC == nil || set != 1 {
			return fmt.Errorf("confidence: spec kind %q needs exactly the cic config", s.Kind)
		}
		if err := checkGeometry("cic", s.CIC.Entries, s.CIC.HistoryLen, s.CIC.WeightBits); err != nil {
			return err
		}
	case KindTNT:
		if s.TNT == nil || set != 1 {
			return fmt.Errorf("confidence: spec kind %q needs exactly the tnt config", s.Kind)
		}
		if err := checkGeometry("tnt", s.TNT.Entries, s.TNT.HistoryLen, s.TNT.WeightBits); err != nil {
			return err
		}
	default:
		return fmt.Errorf("confidence: unknown spec kind %q", s.Kind)
	}
	switch s.Wrap {
	case "":
	case WrapPromoteLow, WrapDemoteStrong:
		if s.Kind == KindNone {
			return fmt.Errorf("confidence: spec wrap %q needs an estimator to wrap", s.Wrap)
		}
	default:
		return fmt.Errorf("confidence: unknown spec wrap %q", s.Wrap)
	}
	return nil
}

// maxSpecEntries bounds table sizes a Spec may request. Specs arrive
// over the wire from distributed batches, so hostile or corrupt values
// must fail validation instead of panicking a constructor or
// allocating an absurd table. The paper's largest geometry is 8K
// entries; a megabyte-scale table is already far beyond any sweep.
const maxSpecEntries = 1 << 20

// checkGeometry validates the table-geometry knobs shared by the
// estimator families. Zero always means "use the constructor default".
func checkGeometry(kind string, entries, histLen, weightBits int) error {
	if entries < 0 || entries > maxSpecEntries {
		return fmt.Errorf("confidence: spec %s entries %d outside [0,%d]", kind, entries, maxSpecEntries)
	}
	if histLen < 0 || histLen > 64 {
		return fmt.Errorf("confidence: spec %s history %d outside [0,64]", kind, histLen)
	}
	if weightBits != 0 && (weightBits < 2 || weightBits > 15) {
		return fmt.Errorf("confidence: spec %s weight bits %d outside [2,15]", kind, weightBits)
	}
	return nil
}

// Build constructs the described estimator. A nil Spec and KindNone
// both return (nil, nil): the caller runs without an estimator.
func (s *Spec) Build() (Estimator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s == nil || s.Kind == KindNone {
		return nil, nil
	}
	var est Estimator
	switch s.Kind {
	case KindJRS:
		est = NewJRS(*s.JRS)
	case KindCIC:
		est = NewCICWith(*s.CIC)
	default: // KindTNT; Validate rejected everything else
		est = NewTNTWith(*s.TNT)
	}
	switch s.Wrap {
	case WrapPromoteLow:
		est = PromoteLow{Inner: est}
	case WrapDemoteStrong:
		est = DemoteStrong{Inner: est}
	}
	return est, nil
}

package core

import (
	"context"
	"fmt"
	"strings"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/workload"
)

// -------------------------------------------------------------------
// Table 2 — benchmarks and their speculative execution characteristics
// -------------------------------------------------------------------

// Table2Row is one benchmark's row of Table 2.
type Table2Row struct {
	Bench string
	// MispPer1K is branch mispredicts per 1000 uops (measured on the
	// baseline 40c4w machine, real predictor).
	MispPer1K float64
	// PaperMispPer1K is the paper's value (calibration target).
	PaperMispPer1K float64
	// Waste20x4, Waste20x8, Waste40x4 are the percentage increases in
	// uops executed due to branch mispredictions per machine.
	Waste20x4, Waste20x8, Waste40x4 float64
}

// Table2Result is the full table plus averages.
type Table2Result struct {
	Rows []Table2Row
	// AvgMispPer1K and AvgWaste* mirror the paper's "average" row.
	AvgMispPer1K                             float64
	AvgWaste20x4, AvgWaste20x8, AvgWaste40x4 float64
}

// Table2 regenerates Table 2: per-benchmark misprediction rates and
// the wasted-execution increase on the three machines, each measured
// as executed-uops(real predictor) / executed-uops(perfect prediction)
// − 1.
func Table2(sz Sizes) (*Table2Result, error) {
	machines := []config.Machine{config.Mid20x4(), config.Wide20x8(), config.Baseline40x4()}
	rows, err := mapBench(func(ctx context.Context, bench string) (Table2Row, error) {
		row := Table2Row{Bench: bench, PaperMispPer1K: workload.Table2Target[bench]}
		for i, machine := range machines {
			perfect, err := runTiming(ctx, JobSpec{Bench: bench, Machine: machine, Perfect: true}, sz)
			if err != nil {
				return row, err
			}
			real, err := runTiming(ctx, JobSpec{Bench: bench, Machine: machine}, sz)
			if err != nil {
				return row, err
			}
			w := real.WastePercent(perfect.Executed)
			switch i {
			case 0:
				row.Waste20x4 = w
			case 1:
				row.Waste20x8 = w
			case 2:
				row.Waste40x4 = w
				row.MispPer1K = real.MispredictsPer1KUops()
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{Rows: rows}
	for _, r := range rows {
		res.AvgMispPer1K += r.MispPer1K
		res.AvgWaste20x4 += r.Waste20x4
		res.AvgWaste20x8 += r.Waste20x8
		res.AvgWaste40x4 += r.Waste40x4
	}
	n := float64(len(res.Rows))
	res.AvgMispPer1K /= n
	res.AvgWaste20x4 /= n
	res.AvgWaste20x8 /= n
	res.AvgWaste40x4 /= n
	return res, nil
}

// String renders the table in the paper's layout.
func (t *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Benchmarks and their speculative execution characteristics\n")
	fmt.Fprintf(&b, "%-9s %11s %8s | %% increase in uops executed\n", "", "misp/Kuop", "(paper)")
	fmt.Fprintf(&b, "%-9s %11s %8s | %8s %8s %8s\n", "bench", "", "", "20c4w", "20c8w", "40c4w")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-9s %11.1f %8.1f | %7.0f%% %7.0f%% %7.0f%%\n",
			r.Bench, r.MispPer1K, r.PaperMispPer1K, r.Waste20x4, r.Waste20x8, r.Waste40x4)
	}
	fmt.Fprintf(&b, "%-9s %11.1f %8.1f | %7.0f%% %7.0f%% %7.0f%%\n",
		"average", t.AvgMispPer1K, 4.1, t.AvgWaste20x4, t.AvgWaste20x8, t.AvgWaste40x4)
	return b.String()
}

// -------------------------------------------------------------------
// Table 3 — Enhanced JRS vs Perceptron (confidence estimation metrics)
// -------------------------------------------------------------------

// Table3Row is one estimator threshold's PVN/Spec pair.
type Table3Row struct {
	Estimator string
	Lambda    int
	PVN, Spec float64 // percentages
}

// Table3Result holds both halves of Table 3.
type Table3Result struct {
	JRS, Perceptron []Table3Row
}

// Table3 regenerates Table 3: PVN and Spec for enhanced JRS at
// λ∈{3,7,11,15} and the perceptron (CIC) estimator at λ∈{25,0,-25,-50},
// aggregated over all benchmarks.
func Table3(sz Sizes) (*Table3Result, error) {
	res := &Table3Result{}
	for _, lam := range []int{3, 7, 11, 15} {
		l := lam
		c, err := AverageConfusionSized(nil, func() confidence.Estimator {
			return confidence.NewEnhancedJRS(l)
		}, sz)
		if err != nil {
			return nil, err
		}
		res.JRS = append(res.JRS, Table3Row{
			Estimator: "jrs", Lambda: l, PVN: 100 * c.PVN(), Spec: 100 * c.Spec(),
		})
	}
	for _, lam := range []int{25, 0, -25, -50} {
		l := lam
		c, err := AverageConfusionSized(nil, func() confidence.Estimator {
			return confidence.NewCIC(l)
		}, sz)
		if err != nil {
			return nil, err
		}
		res.Perceptron = append(res.Perceptron, Table3Row{
			Estimator: "perceptron", Lambda: l, PVN: 100 * c.PVN(), Spec: 100 * c.Spec(),
		})
	}
	return res, nil
}

// String renders the table in the paper's layout.
func (t *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. Enhanced JRS vs Perceptron (confidence estimation metrics)\n")
	fmt.Fprintf(&b, "  Enhanced JRS                Perceptron\n")
	fmt.Fprintf(&b, "  %-4s %6s %6s          %-4s %6s %6s\n", "λ", "PVN%", "Spec%", "λ", "PVN%", "Spec%")
	for i := range t.JRS {
		fmt.Fprintf(&b, "  %-4d %6.0f %6.0f          %-4d %6.0f %6.0f\n",
			t.JRS[i].Lambda, t.JRS[i].PVN, t.JRS[i].Spec,
			t.Perceptron[i].Lambda, t.Perceptron[i].PVN, t.Perceptron[i].Spec)
	}
	b.WriteString("  (paper: JRS PVN 36/28/24/22, Spec 85/92/94/96;\n")
	b.WriteString("          perceptron PVN 77/74/69/61, Spec 34/43/54/66)\n")
	return b.String()
}

// -------------------------------------------------------------------
// Table 4 — pipeline gating metrics: JRS (PL1/PL2/PL3) vs CIC (PL1)
// -------------------------------------------------------------------

// Table4Result holds the gating sweep on the baseline machine.
type Table4Result struct {
	// JRS has one row per (λ, PL) pair; Perceptron one per λ at PL1.
	JRS        []GatingResult
	Perceptron []GatingResult
}

// Table4 regenerates Table 4: reduction in executed uops (U) and
// performance loss (P) from pipeline gating on the 40-cycle baseline,
// for enhanced JRS with branch-counter thresholds 1-3 and the
// perceptron estimator with threshold 1.
func Table4(sz Sizes) (*Table4Result, error) {
	baseline := func(bench string) JobSpec {
		return JobSpec{Bench: bench, Machine: config.Baseline40x4()}
	}
	var variants []variant
	for _, pl := range []int{1, 2, 3} {
		for _, lam := range []int{3, 7, 11, 15} {
			pl, lam := pl, lam
			variants = append(variants, variant{
				Label: fmt.Sprintf("jrs λ=%d PL%d", lam, pl),
				Of: func(bench string) JobSpec {
					return JobSpec{
						Bench: bench, Machine: config.Baseline40x4(),
						Estimator:     confidence.SpecJRS(lam),
						GateThreshold: pl,
					}
				},
			})
		}
	}
	for _, lam := range []int{25, 0, -25, -50} {
		lam := lam
		variants = append(variants, variant{
			Label: fmt.Sprintf("cic λ=%d PL1", lam),
			Of: func(bench string) JobSpec {
				return JobSpec{
					Bench: bench, Machine: config.Baseline40x4(),
					Estimator:     confidence.SpecCIC(lam),
					GateThreshold: 1,
				}
			},
		})
	}
	rows, err := gatingSweep(sz, baseline, variants)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{}
	for _, r := range rows {
		if strings.HasPrefix(r.Label, "jrs") {
			res.JRS = append(res.JRS, r)
		} else {
			res.Perceptron = append(res.Perceptron, r)
		}
	}
	return res, nil
}

// String renders the table in the paper's layout.
func (t *Table4Result) String() string {
	var b strings.Builder
	b.WriteString("Table 4. Enhanced JRS vs Perceptron (pipeline gating metrics, 40c4w)\n")
	b.WriteString("U = reduction in executed uops (%), P = performance loss (%)\n\n")
	b.WriteString("        JRS PL1        JRS PL2        JRS PL3        Perceptron PL1\n")
	b.WriteString(" λ      U      P       U      P       U      P   |  λ      U      P\n")
	jlam := []int{3, 7, 11, 15}
	plam := []int{25, 0, -25, -50}
	at := func(pl, li int) GatingResult { return t.JRS[(pl-1)*4+li] }
	for i := range jlam {
		fmt.Fprintf(&b, "%3d %6.1f %6.1f  %6.1f %6.1f  %6.1f %6.1f  | %3d %6.1f %6.1f\n",
			jlam[i], at(1, i).U, at(1, i).P, at(2, i).U, at(2, i).P, at(3, i).U, at(3, i).P,
			plam[i], t.Perceptron[i].U, t.Perceptron[i].P)
	}
	b.WriteString("(paper JRS PL1 U/P: 26/17 29/25 31/29 31/32; PL2: 14/4 19/9 21/12 22/14;\n")
	b.WriteString(" PL3: 9/2 13/4 14/5 15/7; perceptron PL1: 8/0 11/1 14/2 18/3)\n")
	return b.String()
}

// -------------------------------------------------------------------
// Table 5 — effect of a better baseline branch predictor (§5.2)
// -------------------------------------------------------------------

// Table5Result compares gating on the two baseline predictors.
type Table5Result struct {
	BimodalGshare    []GatingResult
	GsharePerceptron []GatingResult
}

// Table5 regenerates Table 5: CIC pipeline gating (PL1) on the
// bimodal-gshare baseline (λ ∈ {25,0,-25,-50}) versus the
// gshare-perceptron baseline (λ ∈ {0,-25,-50,-60}).
func Table5(sz Sizes) (*Table5Result, error) {
	mk := func(kind PredictorKind, lams []int) []variant {
		var out []variant
		for _, lam := range lams {
			lam := lam
			out = append(out, variant{
				Label: fmt.Sprintf("%s λ=%d", kind, lam),
				Of: func(bench string) JobSpec {
					return JobSpec{
						Bench: bench, Machine: config.Baseline40x4(), Predictor: kind.String(),
						Estimator:     confidence.SpecCIC(lam),
						GateThreshold: 1,
					}
				},
			})
		}
		return out
	}
	res := &Table5Result{}
	rows, err := gatingSweep(sz, func(bench string) JobSpec {
		return JobSpec{Bench: bench, Machine: config.Baseline40x4(), Predictor: BimodalGshare.String()}
	}, mk(BimodalGshare, []int{25, 0, -25, -50}))
	if err != nil {
		return nil, err
	}
	res.BimodalGshare = rows
	rows, err = gatingSweep(sz, func(bench string) JobSpec {
		return JobSpec{Bench: bench, Machine: config.Baseline40x4(), Predictor: GsharePerceptron.String()}
	}, mk(GsharePerceptron, []int{0, -25, -50, -60}))
	if err != nil {
		return nil, err
	}
	res.GsharePerceptron = rows
	return res, nil
}

// String renders the table in the paper's layout.
func (t *Table5Result) String() string {
	var b strings.Builder
	b.WriteString("Table 5. Effect of better baseline branch predictor (CIC gating, PL1, 40c4w)\n")
	b.WriteString("  bimodal-gshare            gshare-perceptron\n")
	b.WriteString("  λ      U      P           λ      U      P\n")
	lams1 := []int{25, 0, -25, -50}
	lams2 := []int{0, -25, -50, -60}
	for i := range t.BimodalGshare {
		fmt.Fprintf(&b, "%4d %6.1f %6.1f        %4d %6.1f %6.1f\n",
			lams1[i], t.BimodalGshare[i].U, t.BimodalGshare[i].P,
			lams2[i], t.GsharePerceptron[i].U, t.GsharePerceptron[i].P)
	}
	b.WriteString("(paper: bimodal-gshare U/P 8/0 11/1 14/2 18/3;\n")
	b.WriteString("        gshare-perceptron U/P 4/0 8/1 12/2 14/3)\n")
	return b.String()
}

// -------------------------------------------------------------------
// Table 6 — perceptron size sensitivity (§5.4.1)
// -------------------------------------------------------------------

// Table6Config is one PiWjHk estimator geometry.
type Table6Config struct {
	Label                        string
	Entries, WeightBits, HistLen int
	SizeKB                       float64
}

// Table6Configs returns the paper's seven geometries.
func Table6Configs() []Table6Config {
	return []Table6Config{
		{"P128W8H32", 128, 8, 32, 4},
		{"P96W8H32", 96, 8, 32, 3},
		{"P128W6H32", 128, 6, 32, 3},
		{"P128W8H24", 128, 8, 24, 3},
		{"P64W8H32", 64, 8, 32, 2},
		{"P128W4H32", 128, 4, 32, 2},
		{"P128W8H16", 128, 8, 16, 2},
	}
}

// Table6Result is the size-sensitivity sweep.
type Table6Result struct {
	Rows []GatingResult
}

// Table6 regenerates Table 6: U and P for CIC pipeline gating (λ=0,
// PL1, 40c4w) across estimator geometries from 4 KB down to 2 KB.
func Table6(sz Sizes) (*Table6Result, error) {
	var variants []variant
	for _, cfg := range Table6Configs() {
		cfg := cfg
		variants = append(variants, variant{
			Label: cfg.Label,
			Of: func(bench string) JobSpec {
				return JobSpec{
					Bench: bench, Machine: config.Baseline40x4(),
					Estimator: confidence.SpecCICWith(confidence.CICConfig{
						Entries:    cfg.Entries,
						WeightBits: cfg.WeightBits,
						HistoryLen: cfg.HistLen,
						Lambda:     0,
						Reversal:   confidence.DisableReversal,
					}),
					GateThreshold: 1,
				}
			},
		})
	}
	rows, err := gatingSweep(sz, func(bench string) JobSpec {
		return JobSpec{Bench: bench, Machine: config.Baseline40x4()}
	}, variants)
	if err != nil {
		return nil, err
	}
	return &Table6Result{Rows: rows}, nil
}

// String renders the table in the paper's layout.
func (t *Table6Result) String() string {
	var b strings.Builder
	b.WriteString("Table 6. Perceptron size sensitivity (CIC λ=0, PL1, 40c4w)\n")
	b.WriteString("size  config       P      U\n")
	cfgs := Table6Configs()
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%3.0fKB %-11s %5.1f %6.1f\n", cfgs[i].SizeKB, r.Label, r.P, r.U)
	}
	b.WriteString("(paper P/U: 1/11, 1/11, 2/10, 1/10, 1/10, 6/8, 1/8)\n")
	return b.String()
}

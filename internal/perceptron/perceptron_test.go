package perceptron

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDefaults(t *testing.T) {
	p := New(32, 8)
	if p.Inputs() != 32 {
		t.Errorf("Inputs() = %d", p.Inputs())
	}
	min, max := p.WeightRange()
	if min != -128 || max != 127 {
		t.Errorf("WeightRange() = [%d,%d], want [-128,127]", min, max)
	}
	if len(p.Weights()) != 33 {
		t.Errorf("len(Weights()) = %d, want 33", len(p.Weights()))
	}
	if y := p.Output(0xFFFFFFFF); y != 0 {
		t.Errorf("fresh perceptron Output = %d, want 0", y)
	}
}

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct{ n, bits int }{{0, 8}, {8, 1}, {8, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.n, tc.bits)
				}
			}()
			New(tc.n, tc.bits)
		}()
	}
}

func TestTrainPanicsOnBadTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Train(0) did not panic")
		}
	}()
	New(4, 8).Train(0, 0)
}

func TestOutputMatchesManualDot(t *testing.T) {
	p := New(4, 8)
	w := p.Weights()
	w[0], w[1], w[2], w[3], w[4] = 3, -2, 5, 0, 7
	// hist = 0b1010: bit0=0(-1), bit1=1(+1), bit2=0(-1), bit3=1(+1)
	want := 3 + (-1)*(-2) + (1)*5 + (-1)*0 + (1)*7
	if y := p.Output(0b1010); y != want {
		t.Errorf("Output = %d, want %d", y, want)
	}
}

func TestTrainMovesOutputTowardTarget(t *testing.T) {
	p := New(8, 8)
	hist := uint64(0b10110010)
	before := p.Output(hist)
	p.Train(hist, 1)
	after := p.Output(hist)
	// Each of the 9 weights moves the dot product by +1 in target
	// direction for this exact history.
	if after != before+9 {
		t.Errorf("after positive train: %d -> %d, want +9", before, after)
	}
	p.Train(hist, -1)
	if y := p.Output(hist); y != before {
		t.Errorf("train +1 then -1 is not inverse: %d != %d", y, before)
	}
}

func TestSaturation(t *testing.T) {
	p := New(2, 4) // weights in [-8, 7]
	hist := uint64(0b11)
	for i := 0; i < 100; i++ {
		p.Train(hist, 1)
	}
	for _, w := range p.Weights() {
		if w != 7 {
			t.Fatalf("weight %d not saturated at 7", w)
		}
	}
	for i := 0; i < 200; i++ {
		p.Train(hist, -1)
	}
	for _, w := range p.Weights() {
		if w != -8 {
			t.Fatalf("weight %d not saturated at -8", w)
		}
	}
}

// Property: weights always stay within the saturation bounds no matter
// the training sequence.
func TestSaturationQuick(t *testing.T) {
	f := func(seed int64, bitsU uint8, steps uint16) bool {
		bits := 2 + int(bitsU)%7 // 2..8
		p := New(16, bits)
		min, max := p.WeightRange()
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < int(steps)%500; i++ {
			tgt := 1
			if r.Intn(2) == 0 {
				tgt = -1
			}
			p.Train(r.Uint64(), tgt)
			for _, w := range p.Weights() {
				if w < min || w > max {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Output is linear in the weights — flipping one history bit
// changes the output by exactly ±2·w[i+1].
func TestOutputFlipQuick(t *testing.T) {
	f := func(seed int64, hist uint64, bitU uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := New(16, 8)
		for i := 0; i < 50; i++ {
			tgt := 1
			if r.Intn(2) == 0 {
				tgt = -1
			}
			p.Train(r.Uint64(), tgt)
		}
		bit := int(bitU) % 16
		y0 := p.Output(hist)
		y1 := p.Output(hist ^ (1 << uint(bit)))
		w := int(p.Weights()[bit+1])
		diff := y1 - y0
		if hist>>uint(bit)&1 == 1 {
			return diff == -2*w
		}
		return diff == 2*w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A perceptron must learn any linearly separable function of the
// history; check a few: single-bit copy, inverted bit, majority.
func TestLearnsLinearlySeparable(t *testing.T) {
	cases := []struct {
		name string
		f    func(hist uint64) bool
	}{
		{"copy-bit3", func(h uint64) bool { return h>>3&1 == 1 }},
		{"not-bit5", func(h uint64) bool { return h>>5&1 == 0 }},
		{"majority-0,1,2", func(h uint64) bool {
			n := int(h&1) + int(h>>1&1) + int(h>>2&1)
			return n >= 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(8, 8)
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 2000; i++ {
				h := r.Uint64() & 0xFF
				tgt := -1
				if tc.f(h) {
					tgt = 1
				}
				y := p.Output(h)
				if (y >= 0) != tc.f(h) || abs(y) < 16 {
					p.Train(h, tgt)
				}
			}
			errs := 0
			for i := 0; i < 500; i++ {
				h := r.Uint64() & 0xFF
				if (p.Output(h) >= 0) != tc.f(h) {
					errs++
				}
			}
			if errs > 10 {
				t.Errorf("%d/500 errors after training", errs)
			}
		})
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestReset(t *testing.T) {
	p := New(4, 8)
	p.Train(0b1010, 1)
	p.Reset()
	for _, w := range p.Weights() {
		if w != 0 {
			t.Fatal("Reset left nonzero weight")
		}
	}
}

func TestTable(t *testing.T) {
	tbl := NewTable(128, 32, 8)
	if tbl.Entries() != 128 || tbl.HistoryLen() != 32 || tbl.WeightBits() != 8 {
		t.Fatalf("table geometry: %d/%d/%d", tbl.Entries(), tbl.HistoryLen(), tbl.WeightBits())
	}
	// Paper: 128 entries × 33 weights × 8 bits = 4224 B ≈ 4 KB.
	if got := tbl.SizeBytes(); got != 128*33 {
		t.Errorf("SizeBytes = %d, want %d", got, 128*33)
	}
	a := tbl.Lookup(0x1000)
	b := tbl.Lookup(0x1000)
	if &a.Weights()[0] != &b.Weights()[0] {
		t.Error("Lookup not stable for same PC")
	}
	c := tbl.Lookup(0x1004)
	if &a.Weights()[0] == &c.Weights()[0] {
		t.Error("adjacent PCs alias to the same perceptron")
	}
	a.Train(0, 1)
	tbl.Reset()
	if a.Output(0) != 0 {
		t.Error("table Reset did not clear perceptron")
	}
}

// TestTableRoundsUp pins the power-of-two rounding contract the Table 6
// equal-budget comparisons depend on: a requested entry count rounds UP
// to the next power of two, and both Entries and SizeBytes report the
// table that actually runs — never the requested count.
func TestTableRoundsUp(t *testing.T) {
	cases := []struct {
		requested, entries int
	}{
		{1, 1}, {2, 2}, {3, 4}, {96, 128}, {128, 128}, {129, 256}, {1000, 1024},
	}
	const hlen, bits = 8, 8
	for _, tc := range cases {
		tbl := NewTable(tc.requested, hlen, bits)
		if tbl.Entries() != tc.entries {
			t.Errorf("NewTable(%d): Entries = %d, want %d", tc.requested, tbl.Entries(), tc.entries)
		}
		// The hardware budget is charged for the rounded size.
		wantBytes := (tc.entries*(hlen+1)*bits + 7) / 8
		if got := tbl.SizeBytes(); got != wantBytes {
			t.Errorf("NewTable(%d): SizeBytes = %d, want %d (charged for %d entries)",
				tc.requested, got, wantBytes, tc.entries)
		}
	}
}

func TestTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTable(0,...) did not panic")
		}
	}()
	NewTable(0, 8, 8)
}

func BenchmarkOutput32(b *testing.B) {
	p := New(32, 8)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		p.Train(r.Uint64(), 1-2*(i&1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += p.Output(uint64(i) * 0x9E3779B97F4A7C15)
	}
	_ = sink
}

// BenchmarkOutputReference32 measures the retained branchy reference
// kernel, the denominator of the branchless kernel's speedup claim.
func BenchmarkOutputReference32(b *testing.B) {
	p := New(32, 8)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		p.Train(r.Uint64(), 1-2*(i&1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += referenceDot(p.w, uint64(i)*0x9E3779B97F4A7C15)
	}
	_ = sink
}

func BenchmarkTrain32(b *testing.B) {
	p := New(32, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Train(uint64(i)*0x9E3779B97F4A7C15, 1-2*(i&1))
	}
}

// BenchmarkTrainReference32 is the branchy baseline for Train.
func BenchmarkTrainReference32(b *testing.B) {
	p := New(32, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		referenceTrainStep(p.w, uint64(i)*0x9E3779B97F4A7C15, 1-2*(i&1), p.min, p.max)
	}
}

// BenchmarkTableLookup measures the full table fast path — index,
// row slice, dot product — over a PC stream touching every entry.
func BenchmarkTableLookup(b *testing.B) {
	tbl := NewTable(128, 32, 8)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1024; i++ {
		tbl.Train(r.Uint64(), r.Uint64(), 1-2*(i&1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		pc := uint64(i) * 0x9E3779B97F4A7C15
		sink += tbl.Output(pc, pc^uint64(i))
	}
	_ = sink
}

// BenchmarkTableReset measures the flat-array clear.
func BenchmarkTableReset(b *testing.B) {
	tbl := NewTable(128, 32, 8)
	tbl.Train(0, ^uint64(0), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Reset()
	}
}

// group8 is the eight-branch group the Single8 benchmarks score and
// train: a wide machine's fetch or retire group, one Table call per
// branch, as PerceptronCIC issues them.
func group8() (pcs, hists [8]uint64) {
	for j := uint64(0); j < 8; j++ {
		pcs[j] = 0x9E3779B97F4A7C15*j + j*4
		hists[j] = 0xD1B54A32D192ED03 * (j + 1)
	}
	return pcs, hists
}

// BenchmarkTableOutputSingle8 scores a group of eight branches with
// eight Table.Output calls.
func BenchmarkTableOutputSingle8(b *testing.B) {
	tbl := NewTable(128, 32, 8)
	tbl.Output(0, 0)
	pcs, hists := group8()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			sink += tbl.Output(pcs[j], hists[j])
		}
	}
	_ = sink
}

// BenchmarkTableTrainSingle8 trains the same eight branches with eight
// Table.Train calls, alternating targets.
func BenchmarkTableTrainSingle8(b *testing.B) {
	tbl := NewTable(128, 32, 8)
	tbl.Output(0, 0)
	pcs, hists := group8()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			tbl.Train(pcs[j], hists[j], 1-2*(j&1))
		}
	}
}

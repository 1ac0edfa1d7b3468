package perceptron

import (
	"math/rand"
	"testing"
)

// tier_amd64_test.go forces each rung of the kernel dispatch ladder in
// process — scalar, SSE2, AVX2 — and holds every rung to bit-exact
// agreement with the reference implementation. CI additionally runs
// the whole package under GODEBUG=cpu.avx2=off (and cpu.sse2=off) so
// the lower tiers are also covered as the *detected* configuration;
// these tests cover them on AVX2 hardware in a single run.

// availableTiers lists the (avx2, sse2) flag combinations the host can
// actually execute, lowest first. Tiers above the detected one would
// SIGILL, so they are never forced.
func availableTiers() [][2]bool {
	tiers := [][2]bool{{false, false}}
	if useSSE2 {
		tiers = append(tiers, [2]bool{false, true})
	}
	if useAVX2 {
		tiers = append(tiers, [2]bool{true, true})
	}
	return tiers
}

func tierName(tier [2]bool) string {
	switch {
	case tier[0]:
		return "avx2"
	case tier[1]:
		return "sse2"
	default:
		return "scalar"
	}
}

// TestKernelAllTiersBitExact runs the single-call equivalence proof at
// every executable tier.
func TestKernelAllTiersBitExact(t *testing.T) {
	hlens := []int{1, 3, 8, 13, 16, 31, 32, 33, 64}
	for _, tier := range availableTiers() {
		t.Run(tierName(tier), func(t *testing.T) {
			restore := setKernelTier(tier[0], tier[1])
			defer restore()
			for _, bits := range []int{2, 8, 15} {
				rng := rand.New(rand.NewSource(int64(bits) * 1299709))
				for _, hlen := range hlens {
					checkAgainstReference(t, hlen, bits, rng, 200)
				}
			}
		})
	}
}

// tableGeometries covers the paper default, whole-block SIMD rows, an
// odd geometry with a scalar tail, and the extremes.
var tableGeometries = []struct{ entries, hlen, bits int }{
	{16, 32, 8}, // paper default
	{8, 8, 6},   // single block
	{8, 16, 4},  // two blocks
	{4, 64, 15}, // maximum history, widest weights
	{8, 13, 5},  // odd geometry: one block plus a scalar tail
	{8, 1, 2},   // degenerate: bias + one weight
}

// TestTableAllTiersMatchesReference runs the table-level equivalence
// proof at every executable tier: a lazily-materialized table, first
// touched by Output, then interleaved Output and Train calls over a
// small PC range so rows are revisited, must match the reference
// outputs and final weights exactly.
func TestTableAllTiersMatchesReference(t *testing.T) {
	for _, tier := range availableTiers() {
		t.Run(tierName(tier), func(t *testing.T) {
			restore := setKernelTier(tier[0], tier[1])
			defer restore()
			for _, geo := range tableGeometries {
				tbl := NewTable(geo.entries, geo.hlen, geo.bits)
				ref := newRefTable(tbl)
				rng := rand.New(rand.NewSource(int64(geo.hlen)*31 + int64(geo.bits)))
				for step := 0; step < 600; step++ {
					p, h := rng.Uint64()%uint64(4*geo.entries)<<2, rng.Uint64()
					if step%2 == 0 {
						if got, want := tbl.Output(p, h), ref.output(p, h); got != want {
							t.Fatalf("%+v step %d: Output = %d, reference %d", geo, step, got, want)
						}
					} else {
						tgt := 1 - 2*rng.Intn(2)
						tbl.Train(p, h, tgt)
						ref.train(p, h, tgt)
					}
				}
				ref.checkWeights(t)
			}
		})
	}
}

// TestKernelTierMatchesFlags pins KernelTier's naming to the dispatch
// flags the assembly actually reads.
func TestKernelTierMatchesFlags(t *testing.T) {
	for _, tier := range availableTiers() {
		restore := setKernelTier(tier[0], tier[1])
		if got, want := KernelTier(), tierName(tier); got != want {
			restore()
			t.Fatalf("KernelTier() = %q with flags %v, want %q", got, tier, want)
		}
		restore()
	}
}

// FuzzKernelTiersBitExact fuzzes the op-sequence equivalence proof
// across every executable tier at once: the same geometry and op
// stream must produce identical outputs and final weights at each
// rung, and each rung must match the reference.
func FuzzKernelTiersBitExact(f *testing.F) {
	f.Add(uint8(32), uint8(8), int64(1), []byte{0, 1, 2, 3, 255, 128})
	f.Add(uint8(1), uint8(2), int64(2), []byte{7})
	f.Add(uint8(64), uint8(15), int64(3), []byte{0xAA, 0x55, 0x00, 0xFF})
	f.Fuzz(func(t *testing.T, hlenU, bitsU uint8, seed int64, ops []byte) {
		hlen := 1 + int(hlenU)%64
		bits := 2 + int(bitsU)%14
		for _, tier := range availableTiers() {
			restore := setKernelTier(tier[0], tier[1])
			p := New(hlen, bits)
			ref := newRefPerceptron(hlen, bits)
			rng := rand.New(rand.NewSource(seed))
			for step, op := range ops {
				hist := rng.Uint64()
				if op&1 == 0 {
					if got, want := p.Output(hist), ref.output(hist); got != want {
						restore()
						t.Fatalf("%s hlen=%d bits=%d step=%d: Output = %d, reference %d",
							tierName(tier), hlen, bits, step, got, want)
					}
				} else {
					tgt := 1
					if op&2 != 0 {
						tgt = -1
					}
					p.Train(hist, tgt)
					ref.train(hist, tgt)
				}
			}
			for i, w := range p.Weights() {
				if w != ref.w[i] {
					restore()
					t.Fatalf("%s hlen=%d bits=%d: final weight[%d] = %d, reference %d",
						tierName(tier), hlen, bits, i, w, ref.w[i])
				}
			}
			restore()
		}
	})
}

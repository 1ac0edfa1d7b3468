//go:build amd64

package perceptron

// kernel_amd64.go wires the Go-visible kernel entry points to the
// assembly dispatch ladder (scalar → SSE2 → AVX2; see cpu_amd64.go for
// how a tier is selected and kernel_amd64.s for the ladder itself).
// dotKernel and trainKernel handle every geometry — bias, whole
// 8-weight SIMD blocks, scalar tail — and pick the tier internally, so
// the wrappers here are a single call the compiler inlines into every
// caller: Table.Output in a sweep reaches vector code one CALL deep.
// Every tier computes bit-identical results to the scalar kernels in
// kernel.go, which the fuzz and property tests in kernel_test.go hold
// to exact agreement with the branchy reference in reference.go.

// signTable[0][b] holds the eight ±1 sign words for history byte b
// (+1 where the bit is set); signTable[1][b] is its negation, used as
// the per-weight delta when training toward t = -1. The assembly
// reaches signTable[1] as byte offset 4096 from signTable[0].
var signTable [2][256][8]int16

// satVecs[k] holds the PMAXSW/PMINSW operands for k-bit weights:
// lanes 0-7 the minimum, lanes 8-15 the maximum.
var satVecs [16][16]int16

func init() {
	for b := 0; b < 256; b++ {
		for i := 0; i < 8; i++ {
			s := int16(-1)
			if b>>uint(i)&1 == 1 {
				s = 1
			}
			signTable[0][b][i] = s
			signTable[1][b][i] = -s
		}
	}
	for wb := 2; wb <= 15; wb++ {
		max := int16(1<<(wb-1) - 1)
		min := -max - 1
		for i := 0; i < 8; i++ {
			satVecs[wb][i] = min
			satVecs[wb][i+8] = max
		}
	}
}

// dotKernel computes the full perceptron output — bias plus n-1
// history weights against the ±1 signs of hist — selecting the SIMD
// tier internally. Implemented in kernel_amd64.s.
//
//go:noescape
func dotKernel(w *Weight, n int, hist uint64) int32

// trainKernel applies one full training step toward target t (±1)
// with saturation bounds packed as packBounds(min, max), selecting the
// SIMD tier internally. Implemented in kernel_amd64.s.
//
//go:noescape
func trainKernel(w *Weight, n int, hist uint64, t, bounds int64)

// trainBadTarget reports a training target outside ±1. It is reached
// only from trainKernel's validation check and never returns. Keeping
// the check (two predicted-never compares) in the assembly rather than
// the Go wrappers is what lets Perceptron.Train inline.
func trainBadTarget() {
	panic("perceptron: train target not ±1")
}

// dot computes w[0] + Σ w[i+1]·x[i] with x[i] = ±1 from hist.
func dot(w []Weight, hist uint64) int {
	return int(dotKernel(&w[0], len(w), hist))
}

// trainStep applies one perceptron update toward target t (±1) with
// the saturation bounds packed by packBounds.
func trainStep(w []Weight, hist uint64, t int, bounds int64) {
	trainKernel(&w[0], len(w), hist, int64(t), bounds)
}

//go:build !amd64

package perceptron

// On architectures without an assembly fast path the branchless scalar
// kernels are the production kernels.

func dot(w []Weight, hist uint64) int { return dotScalar(w, hist) }

func trainStep(w []Weight, hist uint64, t int, bounds int64) {
	if t != 1 && t != -1 {
		panic("perceptron: train target not ±1")
	}
	trainScalar(w, hist, t, Weight(int16(bounds)), Weight(bounds>>16))
}

// KernelTier names the kernel tier in use; without assembly kernels it
// is always "scalar".
func KernelTier() string { return "scalar" }

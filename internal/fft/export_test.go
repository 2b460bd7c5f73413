package fft

// RealDFT exposes the direct-DFT reference to the external fuzz tests.
var RealDFT = realDFT

// OnesSpectrum exposes the all-ones half-spectrum, against which
// CrossCorrelate is the plain inverse transform.
var OnesSpectrum = onesSpectrum

// KernelBitDiffs counts the outputs of the plan's kernel — the forward
// spectrum of x, its round trip, and its correlation with y — that differ
// in any bit from the reference kernel's (rfft_oracle_test.go).
func KernelBitDiffs(p *RFFT, x, y []float64) int {
	return bitDiffs(runKernel(p, x, y, false), runKernel(p, x, y, true))
}

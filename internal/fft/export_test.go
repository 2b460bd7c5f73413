package fft

// RealDFT exposes the direct-DFT reference to the external fuzz tests.
var RealDFT = realDFT

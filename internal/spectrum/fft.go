// Package spectrum implements the spectral analysis of Section 5.2: a
// radix-2 FFT and a sine-taper multitaper spectral estimator for
// queue-occupancy time series, variance-by-wavelength
// integration, and the paper's classifier that flags benchmarks with
// fast workload variations (variance concentrated at wavelengths
// shorter than the fixed DVFS interval).
package spectrum

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT computes the in-order discrete Fourier transform of x using an
// iterative radix-2 Cooley-Tukey algorithm. len(x) must be a power of
// two. The input is not modified.
func FFT(x []complex128) []complex128 { return fftDir(x, false) }

func fftDir(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("spectrum: FFT length %d is not a power of two", n))
	}
	out := make([]complex128, n)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range x {
		out[bits.Reverse64(uint64(i))>>shift] = x[i]
	}
	sign := -2.0 // forward: e^{-i2πjk/N}
	if inverse {
		sign = 2.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		ang := sign * math.Pi / float64(size)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	return out
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

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
// two. The input is not modified. A Plan transforms bit for bit as FFT
// does: its twiddle tables hold the values of FFT's recurrence.
//
//lint:allow unreachable the general transform, public beside Plan's fused one; the tests check each against the other
func FFT(x []complex128) []complex128 {
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
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		ang := -2 * math.Pi / float64(size) // e^{-i2πjk/N}
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

// twiddles returns every stage's twiddle factors for an n-point
// transform, n a power of two: the stage of butterfly half-width h
// holds h factors at offset h-1, so the table has n-1 entries. Each
// stage replays FFT's recurrence, w starting at 1 and multiplied by
// the stage's step once per factor, so a factor is bit for bit the w
// FFT multiplies by at the same point of every block.
func twiddles(n int) []complex128 {
	tw := make([]complex128, max(n-1, 0))
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		ang := -2 * math.Pi / float64(size)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		w := complex(1, 0)
		for k, stage := 0, tw[half-1:size-1]; k < half; k++ {
			stage[k] = w
			w *= wStep
		}
	}
	return tw
}

// butterflies runs FFT's stages in place over out, which holds the
// input in bit-reversed order, with the factors twiddles(len(out))
// returned.
func butterflies(out, tw []complex128) {
	n := len(out)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		stage := tw[half-1 : size-1]
		for start := 0; start < n; start += size {
			lo, hi := out[start:start+half], out[start+half:start+size]
			for k, w := range stage {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// Package spectrum implements the spectral analysis of Section 5.2: a
// radix-2 FFT and a sine-taper multitaper spectral estimator for
// queue-occupancy time series, variance-by-wavelength
// integration, and the paper's classifier that flags benchmarks with
// fast workload variations (variance concentrated at wavelengths
// shorter than the fixed DVFS interval).
package spectrum

import "math"

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
// stage replays the textbook radix-2 recurrence, w starting at 1 and
// multiplied by the stage's step once per factor, so a factor is bit
// for bit the w that the tests' reference FFT multiplies by at the
// same point of every block.
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

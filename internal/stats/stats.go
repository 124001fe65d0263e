// Package stats provides the batch moments the spectral analyzer and
// the experiment harness share: mean, variance and detrending.
package stats

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Detrend returns xs with its mean removed.
func Detrend(xs []float64) []float64 {
	m := Mean(xs)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x - m
	}
	return out
}

package stats

// Statistics that no command or library path uses. They stay here, with
// the tests that pin their behaviour, rather than in the package.

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean and variance online using Welford's
// algorithm, which is numerically stable for long simulations.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance (0 for fewer than 2 samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation (0 when empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 when empty).
func (r *Running) Max() float64 { return r.max }

// GeoMean returns the geometric mean of strictly positive values.
// Non-positive inputs yield NaN, mirroring the mathematical domain.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. It copies xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	pos := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c[lo]
	}
	frac := pos - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Downsample reduces xs by averaging consecutive groups of k samples.
// A trailing partial group is averaged over its actual length.
func Downsample(xs []float64, k int) []float64 {
	if k <= 1 {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, 0, (len(xs)+k-1)/k)
	for i := 0; i < len(xs); i += k {
		j := i + k
		if j > len(xs) {
			j = len(xs)
		}
		out = append(out, Mean(xs[i:j]))
	}
	return out
}

// Histogram is a fixed-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	under  int64
	over   int64
	total  int64
}

// NewHistogram creates a histogram with n bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram spec [%g,%g) n=%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) { // guard float edge
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations including out-of-range ones.
func (h *Histogram) Total() int64 { return h.total }

// OutOfRange returns the number of observations below Lo and at/above Hi.
func (h *Histogram) OutOfRange() (under, over int64) { return h.under, h.over }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

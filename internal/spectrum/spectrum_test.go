package spectrum

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"mcddvfs/internal/stats"
)

// FFT is the reference transform the Plan tests check against: the
// in-order discrete Fourier transform of x by an iterative radix-2
// Cooley-Tukey algorithm. len(x) must be a power of two. The input is
// not modified. A Plan transforms bit for bit as FFT does: its twiddle
// tables hold the values of FFT's recurrence.
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

// IFFT and Periodogram are reference transforms for the tests: the
// inverse FFT checks FFT by round trip, and the plain periodogram is
// the single-taper baseline Multitaper is compared against.

// IFFT computes the inverse DFT (with 1/N normalization) through the
// forward transform: IDFT(x) = conj(DFT(conj(x)))/N.
func IFFT(x []complex128) []complex128 {
	in := make([]complex128, len(x))
	for i, v := range x {
		in[i] = cmplx.Conj(v)
	}
	out := FFT(in)
	n := complex(float64(len(x)), 0)
	for i := range out {
		out[i] = cmplx.Conj(out[i]) / n
	}
	return out
}

// Periodogram estimates the variance spectrum of x with a plain
// (single-taper, boxcar) periodogram. The series is detrended and
// zero-padded to a power of two, and normalized so that
// Σ_j |X_j|²/(nfft·n) is the variance.
func Periodogram(x []float64) (*Spectrum, error) {
	n := len(x)
	if n < 8 {
		return nil, fmt.Errorf("spectrum: series too short (%d samples)", n)
	}
	nfft := NextPow2(n)
	half := nfft / 2
	buf := make([]complex128, nfft)
	for t, v := range stats.Detrend(x) {
		buf[t] = complex(v, 0)
	}
	X := FFT(buf)
	power := make([]float64, half+1)
	scale := 1 / (float64(nfft) * float64(n))
	for j := 1; j <= half; j++ {
		p := real(X[j])*real(X[j]) + imag(X[j])*imag(X[j])
		if j != half {
			p *= 2 // fold the conjugate-symmetric half
		}
		power[j] = p * scale
	}
	return &Spectrum{Power: power, N: n, NFFT: nfft}, nil
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	got := FFT(x)
	for j := 0; j < n; j++ {
		var want complex128
		for k := 0; k < n; k++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			want += x[k] * complex(math.Cos(ang), math.Sin(ang))
		}
		if d := got[j] - want; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("bin %d: got %v want %v", j, got[j], want)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	f := func(raw []int8) bool {
		n := NextPow2(len(raw) + 8)
		x := make([]complex128, n)
		for i, v := range raw {
			x[i] = complex(float64(v), 0)
		}
		back := IFFT(FFT(x))
		for i := range x {
			if d := back[i] - x[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 256
	x := make([]complex128, n)
	var tsum float64
	for i := range x {
		v := rng.NormFloat64()
		x[i] = complex(v, 0)
		tsum += v * v
	}
	X := FFT(x)
	var fsum float64
	for _, v := range X {
		fsum += real(v)*real(v) + imag(v)*imag(v)
	}
	fsum /= float64(n)
	if math.Abs(tsum-fsum)/tsum > 1e-9 {
		t.Errorf("Parseval violated: time %g freq %g", tsum, fsum)
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPeriodogramFindsSinusoid(t *testing.T) {
	n := 1024
	x := make([]float64, n)
	period := 32.0
	for i := range x {
		x[i] = 3 * math.Sin(2*math.Pi*float64(i)/period)
	}
	s, err := Periodogram(x)
	if err != nil {
		t.Fatal(err)
	}
	// Peak bin should be at wavelength 32.
	best := 1
	for j := 2; j < len(s.Power); j++ {
		if s.Power[j] > s.Power[best] {
			best = j
		}
	}
	if w := s.Wavelength(best); math.Abs(w-period) > 1 {
		t.Errorf("peak at wavelength %g, want %g", w, period)
	}
}

func TestSpectrumVarianceMatchesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2048
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()*2 + 5
	}
	v := stats.Variance(x)
	for name, est := range map[string]func([]float64) (*Spectrum, error){
		"periodogram": Periodogram,
		"multitaper":  func(y []float64) (*Spectrum, error) { return Multitaper(y, 5) },
	} {
		s, err := est(x)
		if err != nil {
			t.Fatal(err)
		}
		got := s.TotalVariance()
		if math.Abs(got-v)/v > 0.15 {
			t.Errorf("%s: total spectral variance %g vs series variance %g", name, got, v)
		}
	}
}

func TestSineTapersOrthonormal(t *testing.T) {
	tapers := SineTapers(256, 5)
	for i := range tapers {
		for j := range tapers {
			dot := 0.0
			for k := range tapers[i] {
				dot += tapers[i][k] * tapers[j][k]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("taper inner product (%d,%d) = %g, want %g", i, j, dot, want)
			}
		}
	}
}

func TestMultitaperSmootherThanPeriodogram(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	p, _ := Periodogram(x)
	m, _ := Multitaper(x, 8)
	// White noise: the flat-spectrum estimate's bin-to-bin variance
	// should drop substantially under multitaper averaging.
	varOf := func(s *Spectrum) float64 { return stats.Variance(s.Power[1:]) }
	if varOf(m) >= varOf(p)*0.5 {
		t.Errorf("multitaper variance %g not clearly below periodogram %g", varOf(m), varOf(p))
	}
}

func TestShortWavelengthShare(t *testing.T) {
	n := 4096
	fast := make([]float64, n)
	slow := make([]float64, n)
	for i := range fast {
		fast[i] = math.Sin(2 * math.Pi * float64(i) / 64)   // wavelength 64
		slow[i] = math.Sin(2 * math.Pi * float64(i) / 2048) // wavelength 2048
	}
	sf, _ := Multitaper(fast, 5)
	ss, _ := Multitaper(slow, 5)
	if share := sf.ShortWavelengthShare(500); share < 0.9 {
		t.Errorf("fast series short-wavelength share = %g, want ~1", share)
	}
	if share := ss.ShortWavelengthShare(500); share > 0.1 {
		t.Errorf("slow series short-wavelength share = %g, want ~0", share)
	}
}

func TestClassify(t *testing.T) {
	n := 8192
	fast := make([]float64, n)
	slow := make([]float64, n)
	for i := range fast {
		fast[i] = 5 + 4*math.Sin(2*math.Pi*float64(i)/300)
		slow[i] = 5 + 4*math.Sin(2*math.Pi*float64(i)/6000)
	}
	cf, err := Classify(fast, DefaultIntervalSamples, DefaultFastShareThreshold)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Classify(slow, DefaultIntervalSamples, DefaultFastShareThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if !cf.Fast {
		t.Errorf("300-sample swings not classified fast (share %g)", cf.ShortShare)
	}
	if cs.Fast {
		t.Errorf("6000-sample swings classified fast (share %g)", cs.ShortShare)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Periodogram([]float64{1, 2, 3}); err == nil {
		t.Error("short series accepted")
	}
	if _, err := Multitaper(make([]float64, 100), 0); err == nil {
		t.Error("zero tapers accepted")
	}
}

func TestWavelengthAndFreq(t *testing.T) {
	s := &Spectrum{Power: make([]float64, 9), N: 16, NFFT: 16}
	if f := 1 / s.Wavelength(4); f != 0.25 {
		t.Errorf("bin 4 frequency = %g cycles/sample, want 0.25", f)
	}
	if s.Wavelength(4) != 4 {
		t.Errorf("Wavelength(4) = %g, want 4", s.Wavelength(4))
	}
	if !math.IsInf(s.Wavelength(0), 1) {
		t.Error("Wavelength(0) should be +Inf")
	}
}

func TestFastShareDegenerateCases(t *testing.T) {
	// Constant series: zero variance everywhere -> share 0.
	x := make([]float64, 1024)
	for i := range x {
		x[i] = 5
	}
	s, err := Multitaper(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if share := s.FastShare(250, 2500); share != 0 {
		t.Errorf("constant series share = %g, want 0", share)
	}
	if s.TotalVariance() > 1e-12 {
		t.Errorf("constant series has variance %g", s.TotalVariance())
	}
}

func TestClassifyTooShort(t *testing.T) {
	if _, err := Classify([]float64{1, 2}, 2500, 0.75); err == nil {
		t.Error("short series accepted")
	}
}

func TestShortWavelengthShareZeroTotal(t *testing.T) {
	s := &Spectrum{Power: make([]float64, 9), N: 16, NFFT: 16}
	if s.ShortWavelengthShare(4) != 0 {
		t.Error("zero-power spectrum share must be 0")
	}
	if s.FastShare(2, 8) != 0 {
		t.Error("zero-power FastShare must be 0")
	}
}

// referenceMultitaper is the estimator before Plan: fresh tapers, a
// fresh transform buffer per series and one FFT per taper. A Plan's
// estimate must match it bit for bit.
func referenceMultitaper(x []float64, k int) *Spectrum {
	n := len(x)
	d := stats.Detrend(x)
	nfft := NextPow2(n)
	half := nfft / 2
	power := make([]float64, half+1)
	buf := make([]complex128, nfft)
	for _, w := range SineTapers(n, k) {
		for i := range buf {
			buf[i] = 0
		}
		for t := 0; t < n; t++ {
			buf[t] = complex(d[t]*w[t], 0)
		}
		X := FFT(buf)
		scale := 1 / (float64(nfft) * float64(k))
		for j := 1; j <= half; j++ {
			p := real(X[j])*real(X[j]) + imag(X[j])*imag(X[j])
			if j != half {
				p *= 2
			}
			power[j] += p * scale
		}
	}
	return &Spectrum{Power: power, N: n, NFFT: nfft}
}

// randomWalk is an occupancy-like series: a bounded random walk with
// white sampling noise on top.
func randomWalk(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	level := 8.0
	for i := range x {
		level = math.Max(0, math.Min(32, level+rng.NormFloat64()))
		x[i] = math.Round(level + rng.Float64()*2)
	}
	return x
}

// TestPlanMatchesReferenceBitForBit: a Plan's spectrum equals the
// reference kernel's in every bin's bits, for power-of-two lengths and
// others, and a Plan reused over several series of its length matches
// on each of them.
func TestPlanMatchesReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{64, 100, 1000, 4097, 30000, 125000} {
		plan, err := NewPlan(n, ClassifyTapers)
		if err != nil {
			t.Fatal(err)
		}
		for series := 0; series < 3; series++ {
			x := randomWalk(rng, n)
			want := referenceMultitaper(x, ClassifyTapers)
			got, err := plan.Multitaper(x)
			if err != nil {
				t.Fatal(err)
			}
			if got.N != want.N || got.NFFT != want.NFFT || len(got.Power) != len(want.Power) {
				t.Fatalf("n=%d: shape N %d NFFT %d bins %d, want %d %d %d", n, got.N, got.NFFT, len(got.Power), want.N, want.NFFT, len(want.Power))
			}
			for j := range want.Power {
				if math.Float64bits(got.Power[j]) != math.Float64bits(want.Power[j]) {
					t.Fatalf("n=%d series %d bin %d: %v, reference %v", n, series, j, got.Power[j], want.Power[j])
				}
			}
		}
	}
}

// TestPlanChecks: a Plan refuses a series of another length and, to
// classify, a taper count other than the classifier's.
func TestPlanChecks(t *testing.T) {
	plan, err := NewPlan(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Multitaper(make([]float64, 101)); err == nil {
		t.Error("a 101-sample series through a 100-sample plan estimated")
	}
	if _, err := plan.Classify(make([]float64, 100), DefaultIntervalSamples, DefaultFastShareThreshold); err == nil {
		t.Error("a 3-taper plan classified")
	}
	if _, err := NewPlan(7, 1); err == nil {
		t.Error("a 7-sample plan built")
	}
}

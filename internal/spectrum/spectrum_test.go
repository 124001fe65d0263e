package spectrum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mcddvfs/internal/stats"
)

// IFFT and Periodogram are reference transforms for the tests: the
// inverse FFT checks FFT by round trip, and the plain periodogram is
// the single-taper baseline Multitaper is compared against.

// IFFT computes the inverse DFT (with 1/N normalization).
func IFFT(x []complex128) []complex128 {
	out := fftDir(x, true)
	n := complex(float64(len(x)), 0)
	for i := range out {
		out[i] /= n
	}
	return out
}

// Periodogram estimates the variance spectrum of x with a plain
// (single-taper, boxcar) periodogram. The series is detrended and
// zero-padded to a power of two.
func Periodogram(x []float64) (*Spectrum, error) {
	return estimate(x, 1, false)
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

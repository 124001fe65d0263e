package spectrum

import (
	"fmt"
	"math"

	"mcddvfs/internal/stats"
)

// Spectrum is a one-sided variance spectrum: Power[j] is the variance
// contributed by frequency bin j (cycles per sample f_j = j/NFFT,
// j = 1..NFFT/2; the DC bin is excluded since series are detrended).
// Σ Power ≈ the series variance (Parseval).
type Spectrum struct {
	Power []float64 // indexed by bin; Power[0] is unused (DC removed)
	N     int       // original series length
	NFFT  int       // transform length (power of two, >= N)
}

// Wavelength returns the period of bin j in samples.
func (s *Spectrum) Wavelength(j int) float64 {
	if j == 0 {
		return math.Inf(1)
	}
	return float64(s.NFFT) / float64(j)
}

// TotalVariance integrates the whole spectrum.
func (s *Spectrum) TotalVariance() float64 {
	sum := 0.0
	for j := 1; j < len(s.Power); j++ {
		sum += s.Power[j]
	}
	return sum
}

// BandVariance integrates the variance at wavelengths within
// [minWavelength, maxWavelength) samples.
func (s *Spectrum) BandVariance(minWavelength, maxWavelength float64) float64 {
	sum := 0.0
	for j := 1; j < len(s.Power); j++ {
		w := s.Wavelength(j)
		if w >= minWavelength && w < maxWavelength {
			sum += s.Power[j]
		}
	}
	return sum
}

// ShortWavelengthShare returns the fraction of total variance at
// wavelengths strictly shorter than the given length in samples — the
// paper's fast-workload-variation metric (Figure 8's dotted-line
// region, normalized).
func (s *Spectrum) ShortWavelengthShare(wavelength float64) float64 {
	tot := s.TotalVariance()
	if tot <= 0 {
		return 0
	}
	return s.BandVariance(0, wavelength) / tot
}

// FastShare returns the share of *workload* variance in the
// fast-variation band [noiseWavelength, intervalWavelength), relative
// to all variance above the noise floor. Occupancy series carry
// tick-level sampling noise that is white — it spreads variance across
// every bin and would otherwise dominate any short-wavelength measure;
// wavelengths below noiseWavelength are ignored because no controller
// (adaptive or fixed-interval) can act on them anyway.
func (s *Spectrum) FastShare(noiseWavelength, intervalWavelength float64) float64 {
	tot := s.BandVariance(noiseWavelength, math.Inf(1))
	if tot <= 0 {
		return 0
	}
	return s.BandVariance(noiseWavelength, intervalWavelength) / tot
}

// Multitaper estimates the variance spectrum with k sine tapers
// (Riedel & Sidorenko), the closed-form approximation to the Thomson
// DPSS tapers the paper's Multi-taper method uses. Averaging the k
// orthogonal eigenspectra trades a small bias for a k-fold variance
// reduction of the estimate.
func Multitaper(x []float64, k int) (*Spectrum, error) {
	if k < 1 {
		return nil, fmt.Errorf("spectrum: taper count %d < 1", k)
	}
	return estimate(x, k, true)
}

func estimate(x []float64, k int, taper bool) (*Spectrum, error) {
	n := len(x)
	if n < 8 {
		return nil, fmt.Errorf("spectrum: series too short (%d samples)", n)
	}
	d := stats.Detrend(x)
	nfft := NextPow2(n)
	half := nfft / 2
	power := make([]float64, half+1)

	buf := make([]complex128, nfft)
	accumulate := func(w []float64, scale float64) {
		for i := range buf {
			buf[i] = 0
		}
		for t := 0; t < n; t++ {
			v := d[t]
			if w != nil {
				v *= w[t]
			}
			buf[t] = complex(v, 0)
		}
		X := FFT(buf)
		for j := 1; j <= half; j++ {
			p := real(X[j])*real(X[j]) + imag(X[j])*imag(X[j])
			if j != half {
				p *= 2 // fold the conjugate-symmetric half
			}
			power[j] += p * scale
		}
	}

	if !taper {
		// Periodogram normalization: Σ_j |X_j|²/(nfft·n) = variance.
		accumulate(nil, 1/(float64(nfft)*float64(n)))
	} else {
		tapers := SineTapers(n, k)
		for _, w := range tapers {
			// Unit-energy taper: Σ_j |Y_j|²/nfft = Σ_t (w_t·x_t)² ≈ var·Σw².
			accumulate(w, 1/(float64(nfft)*float64(k)))
		}
	}
	return &Spectrum{Power: power, N: n, NFFT: nfft}, nil
}

// SineTapers returns the first k sine tapers of length n, normalized to
// unit energy: w_k(t) = √(2/(n+1))·sin(π(k+1)(t+1)/(n+1)).
func SineTapers(n, k int) [][]float64 {
	out := make([][]float64, k)
	norm := math.Sqrt(2 / float64(n+1))
	for i := 0; i < k; i++ {
		w := make([]float64, n)
		for t := 0; t < n; t++ {
			w[t] = norm * math.Sin(math.Pi*float64(i+1)*float64(t+1)/float64(n+1))
		}
		out[i] = w
	}
	return out
}

// Classification is the verdict for one benchmark's occupancy series.
type Classification struct {
	// ShortShare is the fraction of occupancy variance at wavelengths
	// shorter than the fixed-interval length.
	ShortShare float64
	// TotalVariance is the series variance captured by the spectrum.
	TotalVariance float64
	// Fast is true when ShortShare exceeds the decision threshold.
	Fast bool
}

// DefaultIntervalSamples is the fixed-interval length expressed in
// sampling periods: a 10K-instruction interval at IPC ≈ 1 and 1 GHz is
// 10 µs = 2500 periods of the 250 MHz sampling clock.
const DefaultIntervalSamples = 2500

// DefaultNoiseSamples is the noise-floor wavelength (1 µs): variations
// faster than this are sampling noise no controller acts on.
const DefaultNoiseSamples = 250

// DefaultFastShareThreshold is the decision threshold on the fast
// share. A benchmark whose sub-interval wavelengths carry more than
// this share of the workload variance swings faster than a
// fixed-interval controller can react.
const DefaultFastShareThreshold = 0.75

// Classify runs the paper's fast-workload-variation test on an
// occupancy series using the multitaper estimator with 5 tapers.
func Classify(x []float64, intervalSamples float64, threshold float64) (Classification, error) {
	s, err := Multitaper(x, 5)
	if err != nil {
		return Classification{}, err
	}
	share := s.FastShare(DefaultNoiseSamples, intervalSamples)
	return Classification{
		ShortShare:    share,
		TotalVariance: s.BandVariance(DefaultNoiseSamples, math.Inf(1)),
		Fast:          share > threshold,
	}, nil
}

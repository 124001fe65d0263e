// Package stability implements the paper's Section-4 control-theoretic
// analysis of the adaptive DVFS system: the aggregate continuous model
// of the controller/queue/clock-domain loop, its linearization, the
// characteristic roots, and the derived design guidance (Remarks 1–3),
// plus a Runge-Kutta integrator for the nonlinear closed loop used to
// validate the analysis numerically.
//
// The model (Eqs. 1–2 / 7–9 of the paper):
//
//	f'(t) = m·step/(h(f)·T_m0)·(q − q_ref) + l·step/(h(f)·T_l0)·q'(t)
//	q'(t) = γ·(λ(t) − µ(t))
//	µ(t)  = 1/(t1 + c2/f(t))
//
// Choosing h(f) = f² linearizes the loop in the state µ, giving the
// second-order characteristic equation s² + K_l·s + K_m = 0 with
//
//	K_m = m·γ·k·step/T_m0      K_l = l·γ·k·step/T_l0
//
// where k is the local quadratic approximation factor of the µ–f map.
package stability

import (
	"fmt"
	"math"
)

// System carries the aggregate model constants.
type System struct {
	// M and L are the m and l unit-conversion constants of Eq. 1.
	M, L float64
	// Step is the frequency step per action, in normalized frequency.
	Step float64
	// TM0 and TL0 are the basic time delays (sampling periods).
	TM0, TL0 float64
	// Gamma is the γ constant of the queue equation (proportional to
	// the sampling period).
	Gamma float64
	// T1 and C2 parameterize the µ–f service model: t1 is the average
	// frequency-independent time per instruction, c2 the average
	// frequency-dependent cycles per instruction.
	T1, C2 float64
	// QRef is the reference queue occupancy.
	QRef float64
}

// Default returns the paper's "typical system setting": t1/c2 from a
// moderately memory-bound domain, delays from Section 5.1
// (T_m0=50, T_l0=8), γ = 4 instructions per sampling period (IPC ≈ 1
// at 1 GHz sampled at 250 MHz), and the m/l unit-conversion constants
// calibrated so that K_l ≈ 0.5 at the f_max operating point — the
// value the paper's Remark-3 derivation treats as typical, which puts
// the damping ratio inside the [0.5, 1] band for the 50/8 delay pair.
func Default() System {
	return System{
		M: 650, L: 650,
		Step:  1.0 / 320, // one grid step in normalized frequency
		TM0:   50,
		TL0:   8,
		Gamma: 4,
		T1:    0.3,
		C2:    0.7,
		QRef:  4,
	}
}

// Validate checks physical sanity.
func (s System) Validate() error {
	if s.M <= 0 || s.L <= 0 || s.Step <= 0 || s.TM0 <= 0 || s.TL0 <= 0 || s.Gamma <= 0 {
		return fmt.Errorf("stability: non-positive model constant in %+v", s)
	}
	if s.T1 < 0 || s.C2 <= 0 {
		return fmt.Errorf("stability: bad µ–f constants t1=%g c2=%g", s.T1, s.C2)
	}
	return nil
}

// K approximates the µ–f relationship's quadratic factor around the
// operating point f0 (normalized frequency): dµ/df = c2/(t1·f+c2)²,
// which the paper approximates by k/f² and compensates with h(f)=f².
func (s System) K(f0 float64) float64 {
	d := s.T1*f0 + s.C2
	return s.C2 * f0 * f0 / (d * d)
}

// Km returns K_m = m·γ·k·step/T_m0 at operating point f0.
func (s System) Km(f0 float64) float64 {
	return s.M * s.Gamma * s.K(f0) * s.Step / s.TM0
}

// Kl returns K_l = l·γ·k·step/T_l0 at operating point f0.
func (s System) Kl(f0 float64) float64 {
	return s.L * s.Gamma * s.K(f0) * s.Step / s.TL0
}

// Roots returns the characteristic roots
// s_{1,2} = (−K_l ± √(K_l² − 4·K_m))/2 of the linearized loop.
func (s System) Roots(f0 float64) (complex128, complex128) {
	kl, km := s.Kl(f0), s.Km(f0)
	disc := complex(kl*kl-4*km, 0)
	sq := cmplxSqrt(disc)
	a := complex(-kl, 0)
	return (a + sq) / 2, (a - sq) / 2
}

func cmplxSqrt(c complex128) complex128 {
	if imag(c) == 0 {
		if real(c) >= 0 {
			return complex(math.Sqrt(real(c)), 0)
		}
		return complex(0, math.Sqrt(-real(c)))
	}
	r := math.Hypot(real(c), imag(c))
	re := math.Sqrt((r + real(c)) / 2)
	im := math.Sqrt((r - real(c)) / 2)
	if imag(c) < 0 {
		im = -im
	}
	return complex(re, im)
}

// Stable reports Remark 1: with any non-zero positive setting both
// characteristic roots lie in the left half-plane.
func (s System) Stable(f0 float64) bool {
	r1, r2 := s.Roots(f0)
	return real(r1) < 0 && real(r2) < 0
}

// DampingRatio returns ξ = K_l / (2·√K_m).
func (s System) DampingRatio(f0 float64) float64 {
	return s.Kl(f0) / (2 * math.Sqrt(s.Km(f0)))
}

// SettlingTime returns t_s = 8/K_l (2% criterion), in sampling periods.
func (s System) SettlingTime(f0 float64) float64 { return 8 / s.Kl(f0) }

// RiseTime returns t_r ≈ 0.8/√K_m + 1.25·K_l/K_m, in sampling periods.
func (s System) RiseTime(f0 float64) float64 {
	km, kl := s.Km(f0), s.Kl(f0)
	return 0.8/math.Sqrt(km) + 1.25*kl/km
}

// Overshoot returns the maximum percent transient overshoot
// M_p = exp(−πξ/√(1−ξ²)) for underdamped systems, 0 otherwise.
func (s System) Overshoot(f0 float64) float64 {
	xi := s.DampingRatio(f0)
	if xi >= 1 {
		return 0
	}
	return math.Exp(-math.Pi * xi / math.Sqrt(1-xi*xi))
}

// Remark3OK reports whether the damping constraint 0.5 ≤ ξ ≤ 1 holds —
// the condition the paper derives for small transient overshoot with
// good rise time.
func (s System) Remark3OK(f0 float64) bool {
	xi := s.DampingRatio(f0)
	return xi >= 0.5 && xi <= 1
}

// DelayRatioBounds returns the [low, high] band for T_m0/T_l0 implied
// by Remark 3: K_l²/4 ≤ K_m ≤ K_l² together with m = l gives
// T_m0/T_l0 = K_l/K_m ∈ [1/K_l, 4/K_l]. With the paper's typical
// K_l = 1/2 this is the famous 2–8× band.
func DelayRatioBounds(kl float64) (lo, hi float64) {
	return 1 / kl, 4 / kl
}

package stability

// Discrete-time analysis. The paper's model is continuous-time; its
// footnote notes that "a similar but more complicated discrete-time
// model can be derived to get a better and more accurate analysis
// result" and leaves it as future work. This file provides that
// extension: the exact zero-order-hold discretization of the linearized
// second-order loop and its z-plane stability test, plus the sampled
// step response used to cross-check the continuous analysis.

import (
	"fmt"
	"math"
	"math/cmplx"
)

// DiscreteRoots maps the continuous characteristic roots onto the
// z-plane for a sampling period of T sampling-time units via the exact
// pole mapping z = e^{sT} (zero-order hold preserves pole locations).
//
//lint:allow unreachable Section 4 discrete-time model; kept for the planned model-agreement check (ROADMAP)
func (s System) DiscreteRoots(f0, T float64) (complex128, complex128) {
	r1, r2 := s.Roots(f0)
	return cmplx.Exp(r1 * complex(T, 0)), cmplx.Exp(r2 * complex(T, 0))
}

// StableDiscrete reports whether the sampled system is stable: both
// z-plane poles strictly inside the unit circle. For any left-half-
// plane continuous pole this holds for every positive T, so the
// discrete analysis confirms Remark 1 at any sampling rate.
//
//lint:allow unreachable Section 4 discrete-time model; kept for the planned model-agreement check (ROADMAP)
func (s System) StableDiscrete(f0, T float64) bool {
	z1, z2 := s.DiscreteRoots(f0, T)
	return cmplx.Abs(z1) < 1 && cmplx.Abs(z2) < 1
}

// DiscreteStepResponse iterates the exact ZOH-discretized linear loop
//
//	e_{k+1} = Φ·e_k + Γ·u
//
// for the state (q−q_ref, µ−µ*) under a unit workload step, returning
// the queue-error sequence. It exposes any inter-sample behavior the
// continuous approximation hides (for the paper's fine-grained steps
// the two agree closely; the test suite quantifies the gap).
//
//lint:allow unreachable Section 4 discrete-time model; kept for the planned model-agreement check (ROADMAP)
func (s System) DiscreteStepResponse(f0, T float64, steps int) ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if T <= 0 || steps <= 0 {
		return nil, fmt.Errorf("stability: non-positive T or steps")
	}
	km, kl := s.Km(f0), s.Kl(f0)

	// Continuous dynamics: x' = A x + B λ with x = (e, v) where
	// e = q − q_ref, v = µ − λ0:
	//   e' = γ(λ − µ) = −γ·v + γ·dλ
	//   v' = (km/γ)·e + kl·... — work in the (e, e') companion form:
	//   e'' + kl·e' + km·e = γ·dλ'  (impulse at the step). Equivalent
	// state x = (e, e'): A = [[0,1],[−km,−kl]]; the step in λ enters as
	// an initial condition e'(0) = γ·dλ.
	a11, a12 := 0.0, 1.0
	a21, a22 := -km, -kl

	// Matrix exponential of the 2x2 companion matrix over T via
	// scaling-and-squaring with a Taylor series (adequate for the
	// well-conditioned magnitudes here).
	phi := expm2(a11, a12, a21, a22, T)

	e, de := 0.0, s.Gamma*1.0 // unit workload step
	out := make([]float64, steps)
	for k := 0; k < steps; k++ {
		out[k] = e
		e, de = phi[0]*e+phi[1]*de, phi[2]*e+phi[3]*de
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return out[:k+1], fmt.Errorf("stability: discrete iteration diverged at step %d", k)
		}
	}
	return out, nil
}

// expm2 computes exp([[a,b],[c,d]]·t) by scaling and squaring.
func expm2(a, b, c, d, t float64) [4]float64 {
	// Scale so the norm is small.
	norm := math.Max(math.Abs(a)+math.Abs(b), math.Abs(c)+math.Abs(d)) * t
	squarings := 0
	for norm > 0.5 {
		norm /= 2
		t /= 2
		squarings++
	}
	// Taylor series: I + M + M²/2! + ...
	m := [4]float64{a * t, b * t, c * t, d * t}
	res := [4]float64{1, 0, 0, 1}
	term := [4]float64{1, 0, 0, 1}
	for k := 1; k <= 12; k++ {
		term = mul2(term, m)
		f := 1 / factorial(k)
		res[0] += term[0] * f
		res[1] += term[1] * f
		res[2] += term[2] * f
		res[3] += term[3] * f
	}
	for i := 0; i < squarings; i++ {
		res = mul2(res, res)
	}
	return res
}

func mul2(x, y [4]float64) [4]float64 {
	return [4]float64{
		x[0]*y[0] + x[1]*y[2], x[0]*y[1] + x[1]*y[3],
		x[2]*y[0] + x[3]*y[2], x[2]*y[1] + x[3]*y[3],
	}
}

func factorial(k int) float64 {
	f := 1.0
	for i := 2; i <= k; i++ {
		f *= float64(i)
	}
	return f
}

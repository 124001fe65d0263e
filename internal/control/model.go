package control

import (
	"mcddvfs/internal/stability"
)

// ModelSystem maps a controller configuration onto the Section-4
// analytic model, so any configuration can be checked against Remarks
// 1–3 before it is deployed:
//
//	sys := control.DefaultConfig(isa.DomainInt).ModelSystem(t1, c2, ipcPerSample)
//	xi := sys.DampingRatio(1) // want 0.5..1 per Remark 3
//
// t1 and c2 are the µ–f constants of the controlled domain (average
// frequency-independent time and frequency-dependent cycles per
// instruction, both normalized to the sampling period at f_max);
// gamma is the arrival-rate scale (instructions per sampling period).
// The m/l conversion constants carry the controller gains scaled so the
// analytic loop matches the paper's typical K_l ≈ 0.5 operating point
// when the default 50/8 delays and unit gains are used.
//
//lint:allow unreachable Section 4 model of a controller; kept for the planned model-agreement check (ROADMAP)
func (c Config) ModelSystem(t1, c2, gamma float64) stability.System {
	// Calibration constant aligning unit gains with the typical
	// operating point (see stability.Default).
	const unitGainScale = 650
	return stability.System{
		M:     c.GainM * unitGainScale,
		L:     c.GainL * unitGainScale,
		Step:  c.StepMHz / (c.Range.MaxMHz - c.Range.MinMHz),
		TM0:   c.TM0,
		TL0:   c.TL0,
		Gamma: gamma,
		T1:    t1,
		C2:    c2,
		QRef:  float64(c.QRef),
	}
}

// RemarkCompliant reports whether the configuration achieves what
// Remark 3 protects at the given operating point (normalized frequency
// f0) for a typical domain (t1=0.3, c2=0.7, gamma=4): damping of at
// least 0.5 (small transient overshoot) without drifting into a
// sluggish, heavily overdamped regime (ξ ≤ 1.5). Note the damping
// ratio varies with the operating frequency, so a configuration that
// sits mid-band at f₀ = 0.5 may be mildly overdamped at f_max — that
// is the behavior of the paper's own 50/8 setting.
//
//lint:allow unreachable Remark 3 check on the Section 4 model; kept for the planned model-agreement check (ROADMAP)
func (c Config) RemarkCompliant(f0 float64) bool {
	xi := c.ModelSystem(0.3, 0.7, 4).DampingRatio(f0)
	return xi >= 0.5 && xi <= 1.5
}

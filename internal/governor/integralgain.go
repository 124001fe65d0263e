package governor

import (
	"mcddvfs/internal/clock"
	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/mcd"
)

// DefaultGainMHzPerW is the integral gain when the caller leaves it
// unset. Calibration: at the Table-1 operating points a 4-core chip's
// power moves on the order of 0.03–0.06 W per MHz of total frequency
// allowance (between linear and cubic in f because voltage tracks
// frequency), so a gain of 20 MHz/W puts the loop gain G·dP/df near
// one — measured settling is 8–12 epochs from a cold N·f_max start
// with no overshoot ringing, and the cap-sweep artifact's ±5%
// steady-state adherence band holds across the binding budget grid.
const DefaultGainMHzPerW = 20

// The paper-adjacent chip policy, after Chen, Wardi & Yalamanchili
// ("Power Regulation in High Performance Multicore Processors",
// PAPERS.md): one chip-level integral regulator drives the total
// frequency allowance from the total power error, and the allowance is
// apportioned to cores in proportion to their measured demand. A core
// that goes idle releases its watts to the busy cores within a few
// epochs — the budget-reallocation transient the captransient artifact
// records.
func init() {
	Register(Descriptor{
		Name:        "integral-gain",
		Order:       2,
		Capping:     true,
		Description: "chip-level integral power regulator with demand-proportional apportioning (Chen/Wardi/Yalamanchili)",
		Validate:    validateBudget,
		New: func(opt Options) (mcd.Governor, error) {
			if err := validateBudget(opt); err != nil {
				return nil, err
			}
			g := &integralGain{
				budgetW:  opt.BudgetW,
				gain:     opt.GainMHzPerW,
				rng:      opt.Range,
				cores:    opt.Cores,
				allocMHz: opt.Range.MaxMHz * float64(opt.Cores),
			}
			if g.gain <= 0 {
				g.gain = DefaultGainMHzPerW
			}
			return g, nil
		},
	})
}

type integralGain struct {
	budgetW float64
	gain    float64
	rng     dvfs.Range
	cores   int
	// allocMHz is the integral state: the chip-wide frequency
	// allowance, started at N·f_max (no throttling until the budget is
	// provably exceeded).
	allocMHz float64
}

// Apportion integrates the chip-wide budget error into the total
// frequency allowance, then splits the allowance across cores half
// evenly, half in proportion to measured demand. The demand half is
// what reallocates an idle core's watts to its busy neighbors; the
// even half bounds the positive feedback a pure demand split invites
// (a capped core draws less, earns a smaller share, gets capped
// harder, and starves).
func (g *integralGain) Apportion(_ clock.Time, powerW, capMHz []float64) {
	total := 0.0
	for _, w := range powerW {
		total += w
	}
	n := float64(g.cores)
	g.allocMHz += g.gain * (g.budgetW - total)
	if min := g.rng.MinMHz * n; g.allocMHz < min {
		g.allocMHz = min
	}
	if max := g.rng.MaxMHz * n; g.allocMHz > max {
		g.allocMHz = max
	}
	for i := range capMHz {
		share := 1 / n
		if total > 0 {
			share = 0.5/n + 0.5*powerW[i]/total
		}
		capMHz[i] = g.rng.Clamp(g.allocMHz * share)
	}
}

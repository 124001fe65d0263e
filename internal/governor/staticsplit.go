package governor

import (
	"mcddvfs/internal/clock"
	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/mcd"
)

// The naive chip policy: split the budget evenly and run one integral
// frequency-cap loop per core against its fixed B/N share. Simple and
// stable, but a core that needs less than its share strands headroom —
// the slack never reaches the cores that could use it, which is
// exactly the deficiency the integral-gain governor's reallocation
// fixes and the cap-sweep artifact quantifies.
func init() {
	Register(Descriptor{
		Name:        "static-split",
		Order:       1,
		Capping:     true,
		Description: "even B/N per-core budgets, one integral cap loop per core (strands idle cores' slack)",
		Validate:    validateBudget,
		New: func(opt Options) (mcd.Governor, error) {
			if err := validateBudget(opt); err != nil {
				return nil, err
			}
			g := &staticSplit{
				shareW: opt.BudgetW / float64(opt.Cores),
				gain:   opt.GainMHzPerW,
				rng:    opt.Range,
				capMHz: make([]float64, opt.Cores),
			}
			if g.gain <= 0 {
				g.gain = DefaultGainMHzPerW
			}
			for i := range g.capMHz {
				g.capMHz[i] = opt.Range.MaxMHz
			}
			return g, nil
		},
	})
}

type staticSplit struct {
	shareW float64
	gain   float64
	rng    dvfs.Range
	capMHz []float64
}

// Apportion integrates each core's budget error into its cap,
// independently of every other core.
func (g *staticSplit) Apportion(_ clock.Time, powerW, capMHz []float64) {
	for i := range capMHz {
		g.capMHz[i] = g.rng.Clamp(g.capMHz[i] + g.gain*(g.shareW-powerW[i]))
		capMHz[i] = g.capMHz[i]
	}
}

package experiment

import (
	"context"
	"fmt"

	"mcddvfs/internal/control"
	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/power"
)

// AblationVariant is one adaptive-controller configuration under test.
type AblationVariant struct {
	Name   string
	Mutate func(*control.Config)
}

// AblationVariants returns the design-choice ablations called out in
// DESIGN.md: each paper feature disabled in isolation, plus the
// Remark-3 delay-ratio extremes.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "paper", Mutate: nil},
		{Name: "no-signal-scaling", Mutate: func(c *control.Config) { c.SignalScaledDelay = false }},
		{Name: "no-down-caution", Mutate: func(c *control.Config) { c.ScaleDownCaution = false }},
		{Name: "no-double-step", Mutate: func(c *control.Config) { c.CombineDouble = false }},
		{Name: "no-deviation-window", Mutate: func(c *control.Config) { c.DWLevel, c.DWSlope = 0, 0 }},
		{Name: "equal-delays", Mutate: func(c *control.Config) { c.TL0 = c.TM0 }}, // violates Remark 3
		{Name: "ratio-2x", Mutate: func(c *control.Config) { c.TL0 = c.TM0 / 2 }},
		{Name: "ratio-8x", Mutate: func(c *control.Config) { c.TL0 = c.TM0 / 8 }},
		{Name: "proportional-step", Mutate: func(c *control.Config) { c.ProportionalStep = true }},
	}
}

// ablationBenchmarks is the default benchmark set of the ablation and
// the transition-style study, used when Options.Benchmarks is empty.
var ablationBenchmarks = []string{"adpcm_encode", "gsm_decode", "gzip", "swim"}

// Ablation evaluates the variants over opt.Benchmarks and reports mean
// energy/performance/EDP against the no-DVFS baseline.
func Ablation(ctx context.Context, opt Options) (Report, error) {
	opt = opt.withBenchmarks(ablationBenchmarks)
	lines := []string{fmt.Sprintf("%-22s %12s %12s %12s %10s", "variant", "energy save", "perf degr.", "EDP impr.", "actions")}
	for _, v := range AblationVariants() {
		sub := opt
		sub.MutateAdaptive = v.Mutate
		var sum power.Comparison
		actions := 0
		for _, b := range sub.Benchmarks {
			c, run, err := compareRun(ctx, b, SchemeAdaptive, sub)
			if err != nil {
				return Report{}, err
			}
			sum = addComparison(sum, c)
			for _, name := range []string{mcd.NameInt, mcd.NameFP, mcd.NameLS} {
				actions += run.Domains[name].Transitions
			}
		}
		n := float64(len(sub.Benchmarks))
		lines = append(lines, fmt.Sprintf("%-22s %11.2f%% %11.2f%% %11.2f%% %10d",
			v.Name, 100*sum.EnergySaving/n, 100*sum.PerfDegradation/n, 100*sum.EDPImprovement/n, actions))
	}
	return Report{
		ID:    "ablation",
		Title: "Adaptive-controller feature ablation",
		Lines: lines,
		Notes: []string{
			"no-deviation-window should raise action counts (lost noise rejection)",
			"equal-delays violates Remark 3 (Tm0 should be 2-8x Tl0)",
		},
	}, nil
}

// TransitionStyles compares the XScale-style execute-through DVFS model
// against a Transmeta-style idle-through model (Section 3's two DVFS
// families) over opt.Benchmarks. For the Transmeta style, the paper
// prescribes larger steps and longer delays to amortize the costlier
// switches; the variant scales both by 8x.
func TransitionStyles(ctx context.Context, opt Options) (Report, error) {
	opt = opt.withBenchmarks(ablationBenchmarks)
	lines := []string{fmt.Sprintf("%-26s %12s %12s %12s", "model", "energy save", "perf degr.", "EDP impr.")}

	type variant struct {
		name   string
		trans  dvfs.TransitionModel
		mutate func(*control.Config)
	}
	variants := []variant{
		{name: "xscale (paper)", trans: dvfs.DefaultTransitions()},
		{name: "transmeta, paper knobs", trans: dvfs.TransmetaTransitions()},
		{name: "transmeta, coarse knobs", trans: dvfs.TransmetaTransitions(),
			mutate: func(c *control.Config) {
				c.StepMHz *= 8
				c.TM0 *= 8
				c.TL0 *= 8
				c.SwitchTime *= 8
			}},
	}
	for _, v := range variants {
		machine := opt.machine()
		machine.Transitions = v.trans
		sub := opt
		sub.Machine = &machine
		sub.MutateAdaptive = v.mutate
		var sum power.Comparison
		for _, b := range sub.Benchmarks {
			c, _, err := compareRun(ctx, b, SchemeAdaptive, sub)
			if err != nil {
				return Report{}, err
			}
			sum = addComparison(sum, c)
		}
		n := float64(len(sub.Benchmarks))
		lines = append(lines, fmt.Sprintf("%-26s %11.2f%% %11.2f%% %11.2f%%",
			v.name, 100*sum.EnergySaving/n, 100*sum.PerfDegradation/n, 100*sum.EDPImprovement/n))
	}
	return Report{
		ID:    "transitions",
		Title: "XScale-style vs Transmeta-style DVFS transitions (adaptive scheme)",
		Lines: lines,
		Notes: []string{
			"Section 3: Transmeta-style switching should use larger steps and delays; fine-grained knobs pay idle time on every step",
		},
	}, nil
}

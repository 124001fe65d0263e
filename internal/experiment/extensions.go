package experiment

// Extension experiments beyond the paper's evaluation: the
// per-domain-vs-global comparison that motivates MCD DVFS in the first
// place, and the q_ref sensitivity sweep the paper discusses
// qualitatively in Section 3.1.

import (
	"context"
	"fmt"
	"math"

	"mcddvfs/internal/control"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/power"
	"mcddvfs/internal/queue"
	"mcddvfs/internal/stats"
)

// globalBenchmarks is GlobalComparison's default benchmark set, used
// when Options.Benchmarks is empty.
var globalBenchmarks = []string{"adpcm_encode", "gzip", "swim", "epic_decode"}

// GlobalComparison contrasts the paper's per-domain adaptive control
// with chip-coupled scaling (SchemeGlobal) on opt.Benchmarks.
// Workloads with asymmetric domain demand (e.g. integer-only code with
// an idle FP unit) show the per-domain advantage most clearly.
func GlobalComparison(ctx context.Context, opt Options) (Report, error) {
	opt = opt.withBenchmarks(globalBenchmarks)
	lines := []string{fmt.Sprintf("%-14s %28s %28s", "benchmark", "per-domain adaptive", "globally coupled")}
	lines = append(lines, fmt.Sprintf("%-14s %9s %9s %8s %9s %9s %8s", "",
		"save", "perf", "EDP", "save", "perf", "EDP"))
	var sumA, sumG power.Comparison
	for _, b := range opt.Benchmarks {
		ca, _, err := compareRun(ctx, b, SchemeAdaptive, opt)
		if err != nil {
			return Report{}, err
		}
		cg, _, err := compareRun(ctx, b, SchemeGlobal, opt)
		if err != nil {
			return Report{}, err
		}
		sumA = addComparison(sumA, ca)
		sumG = addComparison(sumG, cg)
		lines = append(lines, fmt.Sprintf("%-14s %8.2f%% %8.2f%% %7.2f%% %8.2f%% %8.2f%% %7.2f%%",
			b, 100*ca.EnergySaving, 100*ca.PerfDegradation, 100*ca.EDPImprovement,
			100*cg.EnergySaving, 100*cg.PerfDegradation, 100*cg.EDPImprovement))
	}
	n := float64(len(opt.Benchmarks))
	lines = append(lines, fmt.Sprintf("%-14s %8.2f%% %8.2f%% %7.2f%% %8.2f%% %8.2f%% %7.2f%%",
		"MEAN", 100*sumA.EnergySaving/n, 100*sumA.PerfDegradation/n, 100*sumA.EDPImprovement/n,
		100*sumG.EnergySaving/n, 100*sumG.PerfDegradation/n, 100*sumG.EDPImprovement/n))
	return Report{
		ID:    "global",
		Title: "Per-domain MCD control vs globally coupled scaling (extension)",
		Lines: lines,
		Notes: []string{
			"global coupling follows the busiest domain, so idle domains cannot be slowed independently",
		},
	}, nil
}

func addComparison(a, b power.Comparison) power.Comparison {
	a.EnergySaving += b.EnergySaving
	a.PerfDegradation += b.PerfDegradation
	a.EDPImprovement += b.EDPImprovement
	return a
}

// qrefBenchmarks is QRefSweep's default benchmark set, used when
// Options.Benchmarks is empty.
var qrefBenchmarks = []string{"gsm_decode", "gzip", "swim"}

// QRefSweep quantifies Section 3.1's knob: "increase q_ref to make the
// DVFS controller more aggressive in saving energy, or decrease q_ref
// to preserve performance more." Each row adds delta to every domain's
// reference occupancy, averaged over opt.Benchmarks.
func QRefSweep(ctx context.Context, opt Options) (Report, error) {
	opt = opt.withBenchmarks(qrefBenchmarks)
	lines := []string{fmt.Sprintf("%-12s %12s %12s %12s", "qref shift", "energy save", "perf degr.", "EDP impr.")}
	for _, delta := range []int{-3, -2, -1, 0, 2, 4, 8} {
		sub := opt
		d := delta
		sub.MutateAdaptive = func(c *control.Config) {
			c.QRef += d
			if c.QRef < 1 {
				c.QRef = 1
			}
		}
		mean, err := meanOver(ctx, sub, SchemeAdaptive, 0)
		if err != nil {
			return Report{}, err
		}
		lines = append(lines, fmt.Sprintf("%+12d %11.2f%% %11.2f%% %11.2f%%",
			delta, 100*mean.EnergySaving, 100*mean.PerfDegradation, 100*mean.EDPImprovement))
	}
	return Report{
		ID:    "qref",
		Title: "Reference-occupancy sensitivity (Section 3.1 tradeoff, extension)",
		Lines: lines,
		Notes: []string{
			"larger q_ref tolerates fuller queues: more energy saved, more performance risk",
		},
	}, nil
}

// interfaceBenchmarks is InterfaceStudy's default benchmark set, used
// when Options.Benchmarks is empty.
var interfaceBenchmarks = []string{"gsm_decode", "swim"}

// InterfaceStudy compares the two MCD synchronization-interface
// families the paper's Section 2 surveys — arbitration-based (always
// pay the synchronization window) and token-ring FIFOs (pay only when
// the queue is empty) — across window sizes, against an ideal
// zero-window machine, averaged over opt.Benchmarks.
func InterfaceStudy(ctx context.Context, opt Options) (Report, error) {
	opt = opt.withBenchmarks(interfaceBenchmarks)

	runMean := func(ctx context.Context, windowPS float64, policy queue.SyncPolicy) (power.Comparison, error) {
		machine := opt.machine()
		machine.SyncWindowPS = windowPS
		machine.SyncPolicy = policy
		ideal := opt.machine()
		ideal.SyncWindowPS = 0
		var sum power.Comparison
		for _, b := range opt.Benchmarks {
			subIdeal := opt
			subIdeal.Machine = &ideal
			base, err := RunOneContext(ctx, b, SchemeNone, subIdeal)
			if err != nil {
				return sum, err
			}
			sub := opt
			sub.Machine = &machine
			run, err := RunOneContext(ctx, b, SchemeNone, sub)
			if err != nil {
				return sum, err
			}
			sum = addComparison(sum, power.Compare(base.Metrics, run.Metrics))
		}
		n := float64(len(opt.Benchmarks))
		sum.EnergySaving /= n
		sum.PerfDegradation /= n
		sum.EDPImprovement /= n
		return sum, nil
	}

	lines := []string{fmt.Sprintf("%-24s %16s", "interface", "slowdown vs ideal")}
	for _, windowPS := range []float64{300, 1000, 3000} {
		for _, policy := range []queue.SyncPolicy{queue.SyncArbitration, queue.SyncTokenRing} {
			c, err := runMean(ctx, windowPS, policy)
			if err != nil {
				return Report{}, err
			}
			lines = append(lines, fmt.Sprintf("%-12s %4.0f ps %15.2f%%",
				policy, windowPS, 100*c.PerfDegradation))
		}
	}
	return Report{
		ID:    "interfaces",
		Title: "Synchronization interface designs: arbitration vs token-ring (extension)",
		Lines: lines,
		Notes: []string{
			"token-ring FIFOs avoid the window whenever the queue is non-empty (Section 2)",
		},
	}, nil
}

// partitionBenchmarks is PartitionStudy's default benchmark set, used
// when Options.Benchmarks is empty.
var partitionBenchmarks = []string{"adpcm_encode", "gsm_decode", "gzip", "mcf", "swim"}

// PartitionStudy compares the paper's 4-domain partition (Semeraro et
// al., Figure 1) against the 5-domain Iyer-Marculescu partition with
// the front end split into fetch and dispatch domains — the "open
// research question" of where to draw clock-domain boundaries that
// Section 2 highlights. The extra boundary buys DVFS flexibility at the
// cost of one more synchronization crossing on every instruction.
func PartitionStudy(ctx context.Context, opt Options) (Report, error) {
	opt = opt.withBenchmarks(partitionBenchmarks)
	lines := []string{
		fmt.Sprintf("%-14s | %-19s | %-19s | %-19s", "", "4-domain (paper)", "5-domain, FE fixed", "5-domain, FE DVFS"),
		fmt.Sprintf("%-14s | %8s %9s | %8s %9s | %8s %9s",
			"benchmark", "save", "perf", "save", "perf", "save", "perf"),
	}
	var sums [3]power.Comparison
	for _, b := range opt.Benchmarks {
		base, err := RunOneContext(ctx, b, SchemeNone, opt)
		if err != nil {
			return Report{}, err
		}
		variants := make([]power.Comparison, 3)
		for i, mut := range []func(*mcd.Config){
			nil,
			func(c *mcd.Config) { c.SplitFrontEnd = true },
			func(c *mcd.Config) { c.SplitFrontEnd = true; c.ControlFrontEnd = true },
		} {
			sub := opt
			if mut != nil {
				machine := opt.machine()
				mut(&machine)
				sub.Machine = &machine
			}
			run, err := RunOneContext(ctx, b, SchemeAdaptive, sub)
			if err != nil {
				return Report{}, err
			}
			variants[i] = power.Compare(base.Metrics, run.Metrics)
			sums[i] = addComparison(sums[i], variants[i])
		}
		lines = append(lines, fmt.Sprintf("%-14s | %7.2f%% %8.2f%% | %7.2f%% %8.2f%% | %7.2f%% %8.2f%%",
			b,
			100*variants[0].EnergySaving, 100*variants[0].PerfDegradation,
			100*variants[1].EnergySaving, 100*variants[1].PerfDegradation,
			100*variants[2].EnergySaving, 100*variants[2].PerfDegradation))
	}
	n := float64(len(opt.Benchmarks))
	lines = append(lines, fmt.Sprintf("%-14s | %7.2f%% %8.2f%% | %7.2f%% %8.2f%% | %7.2f%% %8.2f%%",
		"MEAN",
		100*sums[0].EnergySaving/n, 100*sums[0].PerfDegradation/n,
		100*sums[1].EnergySaving/n, 100*sums[1].PerfDegradation/n,
		100*sums[2].EnergySaving/n, 100*sums[2].PerfDegradation/n))
	return Report{
		ID:    "partitions",
		Title: "Clock partitioning: 4- vs 5-domain, with and without front-end DVFS (extension)",
		Lines: lines,
		Notes: []string{
			"savings vs the 4-domain no-DVFS baseline; all schemes adaptive",
			"5-domain pays an extra synchronization boundary; dispatch-domain DVFS is the flexibility it buys",
		},
	}, nil
}

// delayBenchmarks is DelaySweep's default benchmark set, used when
// Options.Benchmarks is empty.
var delayBenchmarks = []string{"adpcm_encode", "gsm_decode", "gzip"}

// DelaySweep validates the Section-4 guidance in the full simulator:
// it sweeps the basic time delays T_m0 × T_l0 of the adaptive
// controller and reports the resulting energy/performance/EDP and
// action counts. Remark 2 predicts smaller delays act more but risk
// noise-chasing; Remark 3 predicts the best transient behavior for
// T_m0 ≈ 2–8 × T_l0. Each cell is summed over opt.Benchmarks.
func DelaySweep(ctx context.Context, opt Options) (Report, error) {
	opt = opt.withBenchmarks(delayBenchmarks)
	lines := []string{fmt.Sprintf("%6s %6s %7s %12s %12s %12s %9s",
		"Tm0", "Tl0", "ratio", "energy save", "perf degr.", "EDP impr.", "actions")}
	for _, tm0 := range []float64{12, 25, 50, 100, 200} {
		for _, tl0 := range []float64{4, 8, 25} {
			sub := opt
			tm, tl := tm0, tl0
			sub.MutateAdaptive = func(c *control.Config) {
				c.TM0 = tm
				c.TL0 = tl
			}
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
			lines = append(lines, fmt.Sprintf("%6.0f %6.0f %7.1f %11.2f%% %11.2f%% %11.2f%% %9d",
				tm0, tl0, tm0/tl0,
				100*sum.EnergySaving/n, 100*sum.PerfDegradation/n, 100*sum.EDPImprovement/n, actions))
		}
	}
	return Report{
		ID:    "delays",
		Title: "Basic time-delay sweep: Remarks 2-3 in the full simulator (extension)",
		Lines: lines,
		Notes: []string{
			"Remark 2: smaller delays -> more actions, faster response, less noise rejection",
			"Remark 3: Tm0/Tl0 of 2-8 should sit on the EDP sweet spot",
		},
	}, nil
}

// seedBenchmarks is SeedStudy's default benchmark set, used when
// Options.Benchmarks is empty.
var seedBenchmarks = []string{"adpcm_encode", "gzip", "swim"}

// studySeeds is the number of seeds the seeds artifact runs.
const studySeeds = 5

// SeedStudy quantifies measurement robustness: it repeats the
// baseline/adaptive comparison across independent seeds (different
// trace randomness and clock jitter) and reports the mean and standard
// deviation of the headline metrics. EXPERIMENTS.md cites this when it
// claims run-to-run variation is a few tenths of a percentage point.
// The seeds artifact runs it at studySeeds seeds over opt.Benchmarks.
func SeedStudy(ctx context.Context, opt Options, seeds int) (Report, error) {
	opt = opt.withBenchmarks(seedBenchmarks)
	if seeds < 2 {
		return Report{}, invalidSpec(fmt.Errorf("experiment: seed study needs >= 2 seeds"))
	}
	lines := []string{fmt.Sprintf("%-14s %22s %22s %22s", "benchmark",
		"energy save (mean±sd)", "perf degr. (mean±sd)", "EDP impr. (mean±sd)")}
	for _, b := range opt.Benchmarks {
		comps := make([]power.Comparison, seeds)
		err := firstError(forEachParallel(ctx, seeds, func(i int) error {
			sub := opt
			sub.Seed = opt.Seed + int64(i)*1000
			c, _, err := compareRun(ctx, b, SchemeAdaptive, sub)
			comps[i] = c
			return err
		}))
		if err != nil {
			return Report{}, err
		}
		var save, perf, edp []float64
		for _, c := range comps {
			save = append(save, 100*c.EnergySaving)
			perf = append(perf, 100*c.PerfDegradation)
			edp = append(edp, 100*c.EDPImprovement)
		}
		lines = append(lines, fmt.Sprintf("%-14s %12.2f%% ± %4.2f %12.2f%% ± %4.2f %12.2f%% ± %4.2f",
			b,
			stats.Mean(save), math.Sqrt(stats.Variance(save)),
			stats.Mean(perf), math.Sqrt(stats.Variance(perf)),
			stats.Mean(edp), math.Sqrt(stats.Variance(edp))))
	}
	return Report{
		ID:    "seeds",
		Title: fmt.Sprintf("Seed sensitivity of the adaptive scheme (%d seeds)", seeds),
		Lines: lines,
		Notes: []string{"each seed draws independent trace randomness and clock jitter"},
	}, nil
}

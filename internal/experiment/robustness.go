package experiment

import (
	"context"
	"fmt"

	"mcddvfs/internal/faults"
	"mcddvfs/internal/power"
)

// DefaultFaultIntensities is the robustness sweep's default grid.
func DefaultFaultIntensities() []float64 {
	return []float64{0, 0.25, 0.5, 0.75, 1.0}
}

// robustnessBenchmarks is the fault sweep's default benchmark set,
// used when Options.Benchmarks is empty.
var robustnessBenchmarks = []string{"adpcm_encode", "gsm_decode", "gzip", "swim"}

// FaultSweepContext measures how gracefully each control scheme
// degrades as control-loop faults intensify: for every level of
// opt.FaultIntensities it injects the canonical faults.Intensity
// profile (sensor noise, dropped and corrupted samples, actuation
// delay, missed steps, relock jitter) and reports the mean EDP
// improvement over opt.Benchmarks against the clean no-DVFS baseline,
// plus the drop from the scheme's own fault-free figure.
//
// The sweep tests the paper's robustness claim (Section 3: the
// resettable delay counters "reject deviant events") against the
// fixed-interval baselines, whose window averaging filters sensor
// noise by construction. The baseline runs are fault-free: faults
// corrupt only the control loop, and SchemeNone has no control loop.
func FaultSweepContext(ctx context.Context, opt Options) (Report, error) {
	rep, _, err := faultSweep(ctx, opt)
	return rep, err
}

// faultSweep is FaultSweepContext, also returning the failed cells the
// report notes.
func faultSweep(ctx context.Context, opt Options) (Report, []CellError, error) {
	ctx = orBackground(ctx)
	opt = opt.withBenchmarks(robustnessBenchmarks)
	intensities := opt.FaultIntensities
	if len(intensities) == 0 {
		intensities = DefaultFaultIntensities()
	}
	if err := validateIntensities(intensities); err != nil {
		return Report{}, nil, err
	}
	schemes, err := matrixSchemes(opt)
	if err != nil {
		return Report{}, nil, err
	}

	// One task per (intensity, scheme, benchmark) triple plus the
	// shared clean baselines; the flat list keeps every simulation on
	// the worker pool at once.
	type cell struct {
		intensity float64
		scheme    Scheme
		bench     string
	}
	var cells []cell
	for _, lv := range intensities {
		for _, s := range schemes {
			for _, b := range opt.Benchmarks {
				cells = append(cells, cell{lv, s, b})
			}
		}
	}
	comps := make([]power.Comparison, len(cells))
	var failures []CellError
	errs := forEachParallel(ctx, len(cells), func(i int) error {
		c := cells[i]
		base, err := RunOneContext(ctx, c.bench, SchemeNone, opt) // clean, shared via cache
		if err != nil {
			return err
		}
		sub := opt
		sub.Faults = faults.Intensity(c.intensity, opt.Seed)
		run, err := RunOneContext(ctx, c.bench, c.scheme, sub)
		if err != nil {
			return err
		}
		comps[i] = power.Compare(base.Metrics, run.Metrics)
		return nil
	})
	for _, te := range errs {
		c := cells[te.index]
		failures = append(failures, CellError{Bench: c.bench, Scheme: c.scheme, Err: te.err})
	}
	if err := ctx.Err(); err != nil {
		return Report{}, nil, fmt.Errorf("robustness: %w: %v", ErrCancelled, err)
	}
	if len(failures) == len(cells) && len(cells) > 0 {
		return Report{}, nil, fmt.Errorf("robustness: every cell failed, first: %w", failures[0].Err)
	}
	// Aggregate: mean EDP improvement per (intensity, scheme) over the
	// benchmarks whose cells completed.
	failed := make(map[cell]bool, len(failures))
	for _, te := range errs {
		failed[cells[te.index]] = true
	}
	mean := make(map[Scheme][]float64, len(schemes)) // per scheme, indexed by intensity
	for _, s := range schemes {
		mean[s] = make([]float64, len(intensities))
	}
	for li, lv := range intensities {
		for _, s := range schemes {
			sum, n := 0.0, 0
			for i, c := range cells {
				if c.intensity != lv || c.scheme != s || failed[c] {
					continue
				}
				sum += comps[i].EDPImprovement
				n++
			}
			if n > 0 {
				mean[s][li] = sum / float64(n)
			}
		}
	}

	return renderFaultSweep(opt, schemes, intensities, mean, failures), failures, nil
}

// validateIntensities bounds-checks the sweep grid.
func validateIntensities(intensities []float64) error {
	for _, lv := range intensities {
		if lv < 0 || lv > 1 {
			return invalidSpec(fmt.Errorf("experiment: fault intensity %g outside [0,1]", lv))
		}
	}
	return nil
}

// renderFaultSweep formats the aggregated sweep. Pure rendering over
// in-memory data — kept out of the context-bearing sweep so the
// cancellable function contains only cancellable work.
func renderFaultSweep(opt Options, schemes []Scheme, intensities []float64, mean map[Scheme][]float64, failures []CellError) Report {
	header := fmt.Sprintf("%-10s", "intensity")
	for _, s := range schemes {
		header += fmt.Sprintf(" %18s", string(s)+" EDP")
	}
	lines := []string{header}
	for li, lv := range intensities {
		row := fmt.Sprintf("%-10.2f", lv)
		for _, s := range schemes {
			row += fmt.Sprintf(" %17.2f%%", 100*mean[s][li])
		}
		lines = append(lines, row)
	}
	// Degradation: fault-free minus harshest level, per scheme.
	last := len(intensities) - 1
	deg := fmt.Sprintf("%-10s", "degraded")
	for _, s := range schemes {
		deg += fmt.Sprintf(" %16.2fpp", 100*(mean[s][0]-mean[s][last]))
	}
	lines = append(lines, deg)

	rep := Report{
		ID:    "robustness",
		Title: "EDP improvement vs control-loop fault intensity (mean over benchmarks)",
		Lines: lines,
		Notes: []string{
			fmt.Sprintf("benchmarks: %d; faults: sensor noise/drops/corruption + actuation delay/misses/relock jitter (faults.Intensity, seed %d)", len(opt.Benchmarks), opt.Seed),
			"'degraded' row: EDP-improvement points lost from intensity 0 to the harshest level (smaller = more robust)",
		},
	}
	for _, f := range failures {
		rep.Notes = append(rep.Notes, "failed cell: "+f.Error())
	}
	return rep
}

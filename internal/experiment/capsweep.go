package experiment

import (
	"context"
	"fmt"
	"strings"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/governor"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/plot"
)

// DefaultCapBudgetsPerCoreW is the cap sweep's per-core budget grid in
// watts. The chip budget for a cell is grid value × core count, so the
// grid stays binding at any core count: the default 4-core workload mix
// draws 12-19 W per core uncapped, so the grid spans from barely
// binding (10 W/core) to deeply throttled (5 W/core).
var DefaultCapBudgetsPerCoreW = []float64{10, 8.75, 7.5, 6.25, 5}

// DefaultCapTransientPerCoreW is the budget-reallocation transient's
// per-core budget: binding against every default benchmark but far from
// the frequency floor, so the trace shows regulation rather than
// saturation.
const DefaultCapTransientPerCoreW = 7.5

// capSweepCores sizes the chip the cap artifacts simulate. A chip-level
// governor study needs multiple cores; when the caller does not ask for
// a specific count the artifacts use a 4-core chip (matching the four
// DefaultChipBenchmarks).
func capSweepCores(opt Options) int {
	if opt.Cores > 1 {
		return opt.Cores
	}
	return 4
}

// bindingWindow returns the prefix of the epoch trace during which
// every core is still running. Cores finish at different times, and
// once one retires its workload the chip's demand can fall below the
// budget; those tail epochs measure demand, not regulation.
func bindingWindow(r *mcd.ChipResult) []mcd.EpochSample {
	if len(r.Cores) == 0 {
		return nil
	}
	first := r.Cores[0].Metrics.ExecTime
	for _, c := range r.Cores[1:] {
		if c.Metrics.ExecTime < first {
			first = c.Metrics.ExecTime
		}
	}
	end := 0
	for end < len(r.EpochTrace) && r.EpochTrace[end].Time <= first {
		end++
	}
	return r.EpochTrace[:end]
}

// steadyPowerW measures steady-state chip power: the mean total power
// over the last half of the binding window.
func steadyPowerW(r *mcd.ChipResult) (float64, bool) {
	window := bindingWindow(r)
	if len(window) == 0 {
		return 0, false
	}
	half := window[len(window)/2:]
	sum := 0.0
	for _, s := range half {
		sum += s.TotalPowerW()
	}
	return sum / float64(len(half)), true
}

// floorLimited reports whether the governor's allowance railed at the
// frequency floor across the steady half of the binding window — a
// budget below the chip's floor power (gating residue plus leakage at
// f_min) is unreachable, and the adherence figure for such a cell
// measures the floor, not the regulator. The detector uses the mean
// per-core cap with a 10% tolerance above f_min: a demand-proportional
// split can hold individual caps slightly above the floor even when the
// total allowance is pinned at N·f_min.
func floorLimited(r *mcd.ChipResult, minMHz float64) bool {
	window := bindingWindow(r)
	if len(window) == 0 {
		return false
	}
	sum, n := 0.0, 0
	for _, s := range window[len(window)/2:] {
		for _, cap := range s.CapMHz {
			sum += cap
			n++
		}
	}
	return n > 0 && sum/float64(n) <= minMHz*1.1
}

// capSweepGrid holds one cap sweep: the uncapped reference chip plus
// one cell per (capping governor, budget).
type capSweepGrid struct {
	cores    int
	budgetsW []float64 // chip budgets, descending
	govs     []governor.Descriptor
	base     *mcd.ChipResult
	cells    [][]*mcd.ChipResult // [gov][budget]
}

// newCapSweepGrid lays out the sweep's shape from the registry and the
// budget grid. Pure setup, kept out of the context-bearing sweep.
func newCapSweepGrid(opt Options) (*capSweepGrid, error) {
	cores := capSweepCores(opt)
	g := &capSweepGrid{cores: cores}
	for _, per := range DefaultCapBudgetsPerCoreW {
		g.budgetsW = append(g.budgetsW, per*float64(cores))
	}
	for _, d := range governor.All() {
		if d.Capping {
			g.govs = append(g.govs, d)
		}
	}
	if len(g.govs) == 0 {
		return nil, invalidSpec(fmt.Errorf("experiment: no capping governors registered"))
	}
	g.cells = make([][]*mcd.ChipResult, len(g.govs))
	for i := range g.cells {
		g.cells[i] = make([]*mcd.ChipResult, len(g.budgetsW))
	}
	return g, nil
}

// runCapSweep simulates the grid. Cells run on the shared worker pool;
// each chip additionally parallelizes over its own cores, so the sweep
// saturates the machine without oversubscribing any single cell.
func runCapSweep(ctx context.Context, opt Options) (*capSweepGrid, error) {
	benches := opt.Benchmarks
	g, err := newCapSweepGrid(opt)
	if err != nil {
		return nil, err
	}
	// Flatten to one task list: index 0 is the uncapped reference, the
	// rest are (governor, budget) cells.
	type cell struct{ gi, bi int }
	cells := []cell{{-1, -1}}
	for gi := range g.govs {
		for bi := range g.budgetsW {
			cells = append(cells, cell{gi, bi})
		}
	}
	errs := forEachParallel(ctx, len(cells), func(i int) error {
		sub := opt
		sub.Cores = g.cores
		c := cells[i]
		if c.gi < 0 {
			sub.Governor = governor.DefaultName
			sub.PowerCapW = 0
		} else {
			sub.Governor = g.govs[c.gi].Name
			sub.PowerCapW = g.budgetsW[c.bi]
		}
		res, err := RunChipContext(ctx, benches, SchemeAdaptive, sub)
		if err != nil {
			return err
		}
		if c.gi < 0 {
			g.base = res
		} else {
			g.cells[c.gi][c.bi] = res
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("capsweep: %w: %v", ErrCancelled, err)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("capsweep: %w", errs[0].err)
	}
	return g, nil
}

// CapSweepContext renders the chip power-cap sweep: for every capping
// governor and every budget on the grid, the chip's mean and
// steady-state power, budget adherence, EDP, and per-core throughput,
// against the uncapped reference. The per-domain adaptive controllers
// stay active in every cell — the sweep shows the chip-level cap loop
// composing with, not replacing, the paper's per-domain control.
func CapSweepContext(ctx context.Context, opt Options) (Report, error) {
	g, err := runCapSweep(orBackground(ctx), opt)
	if err != nil {
		return Report{}, err
	}
	return renderCapSweep(opt, g), nil
}

// perCoreMIPS formats each core's throughput for a report row.
func perCoreMIPS(r *mcd.ChipResult) string {
	parts := make([]string, len(r.Cores))
	for i, c := range r.Cores {
		parts[i] = fmt.Sprintf("%.0f", c.Metrics.IPS()/1e6)
	}
	return strings.Join(parts, " ")
}

// renderCapSweep formats the simulated grid. Pure rendering over
// in-memory data, kept out of the context-bearing sweep.
func renderCapSweep(opt Options, g *capSweepGrid) Report {
	lines := []string{
		fmt.Sprintf("%-14s %10s %9s %10s %9s %11s  %s",
			"governor", "budget(W)", "mean(W)", "steady(W)", "adher(%)", "EDP(uJ.s)", "per-core MIPS"),
		fmt.Sprintf("%-14s %10s %9.2f %10s %9s %11.3f  %s",
			"none", "-", g.base.MeanPowerW(), "-", "-", g.base.Metrics.EDP()*1e6, perCoreMIPS(g.base)),
	}
	minMHz := opt.machine().Range.MinMHz
	worstAdher := 0.0
	for gi, d := range g.govs {
		for bi, b := range g.budgetsW {
			r := g.cells[gi][bi]
			steady, ok := steadyPowerW(r)
			steadyCol, adherCol := "-", "-"
			if ok {
				steadyCol = fmt.Sprintf("%.2f", steady)
				// Floor-limited = the allowance railed near f_min AND the
				// chip still overshot the budget by more than 10% — near
				// the floor a cell can regulate within band (flag neither
				// signal alone).
				if floorLimited(r, minMHz) && steady > b*1.1 {
					adherCol = "floor"
				} else {
					adher := 100 * (steady - b) / b
					adherCol = fmt.Sprintf("%+.1f", adher)
					if adher < 0 {
						adher = -adher
					}
					if d.Name == "integral-gain" && adher > worstAdher {
						worstAdher = adher
					}
				}
			}
			lines = append(lines, fmt.Sprintf("%-14s %10.1f %9.2f %10s %9s %11.3f  %s",
				d.Name, b, r.MeanPowerW(), steadyCol, adherCol, r.Metrics.EDP()*1e6, perCoreMIPS(r)))
		}
	}
	return Report{
		ID:    "capsweep",
		Title: "Chip EDP and per-core throughput vs power budget, per governor",
		Lines: lines,
		Notes: []string{
			fmt.Sprintf("%d cores, benchmarks round-robin %s, scheme adaptive, epoch %gus, gain %g MHz/W",
				g.cores, strings.Join(capBenchNames(opt), "/"), float64(mcd.DefaultEpoch)/float64(clock.Microsecond), capGain(opt)),
			"adher: steady-state power vs budget over the last half of the binding window (epochs while every core runs); tail epochs measure demand, not regulation",
			"adher 'floor': budget below the chip's frequency-floor power (gating residue + leakage at f_min); every cap rails at f_min and the cell measures the floor, not the regulator",
			fmt.Sprintf("integral-gain worst steady-state adherence across feasible budgets: %.1f%% (acceptance band +/-5%%)", worstAdher),
			"per-domain adaptive DVFS stays active under every governor; the cap composes with it via min(controller target, cap)",
		},
	}
}

// CapSweepSVG renders the sweep's EDP curves: one line per capping
// governor plus the uncapped reference, EDP (µJ·s) against the chip
// power budget (W).
func CapSweepSVG(ctx context.Context, opt Options) (string, error) {
	g, err := runCapSweep(orBackground(ctx), opt)
	if err != nil {
		return "", err
	}
	return capSweepChart(g)
}

// capSweepChart builds the sweep figure. Pure rendering over in-memory
// data, kept out of the context-bearing sweep.
func capSweepChart(g *capSweepGrid) (string, error) {
	x := make([]float64, len(g.budgetsW))
	baseY := make([]float64, len(g.budgetsW))
	for i, b := range g.budgetsW {
		x[i] = b
		baseY[i] = round2(g.base.Metrics.EDP() * 1e6)
	}
	series := []plot.Series{{Name: "uncapped", X: x, Y: baseY}}
	for gi, d := range g.govs {
		y := make([]float64, len(g.budgetsW))
		for bi := range g.budgetsW {
			y[bi] = round2(g.cells[gi][bi].Metrics.EDP() * 1e6)
		}
		series = append(series, plot.Series{Name: d.Name, X: x, Y: y})
	}
	c := plot.LineChart{
		Title:  fmt.Sprintf("Chip EDP vs power budget (%d cores, adaptive scheme)", g.cores),
		XLabel: "chip power budget (W)",
		YLabel: "chip EDP (uJ*s)",
		Series: series,
	}
	return c.SVG()
}

// capBenchNames reports the workload mix the cap artifacts simulate
// (the caller's -bench selection, else the chip default).
func capBenchNames(opt Options) []string {
	if len(opt.Benchmarks) > 0 {
		return opt.Benchmarks
	}
	return DefaultChipBenchmarks
}

// capGain reports the integral gain the cap artifacts run with.
func capGain(opt Options) float64 {
	if opt.GovernorGain > 0 {
		return opt.GovernorGain
	}
	return governor.DefaultGainMHzPerW
}

// CapTransientContext renders the budget-reallocation transient: an
// N-core chip under the integral-gain governor at a binding budget,
// traced epoch by epoch. The interesting moments are the cold start
// (the allowance integrates down from N·f_max until the chip meets
// the budget) and each core's finish (the finisher's watts reflow to
// the still-running cores within a few epochs).
func CapTransientContext(ctx context.Context, opt Options) (Report, error) {
	ctx = orBackground(ctx)
	cores := capSweepCores(opt)
	budget := opt.PowerCapW
	if budget <= 0 {
		budget = DefaultCapTransientPerCoreW * float64(cores)
	}
	sub := opt
	sub.Cores = cores
	sub.Governor = "integral-gain"
	sub.PowerCapW = budget
	r, err := RunChipContext(ctx, opt.Benchmarks, SchemeAdaptive, sub)
	if err != nil {
		return Report{}, err
	}
	if len(r.EpochTrace) == 0 {
		return Report{}, fmt.Errorf("captransient: %w: run produced no epoch trace", ErrInvalidSpec)
	}
	return renderCapTransient(opt, cores, budget, r), nil
}

// renderCapTransient formats the epoch trace. Pure rendering over
// in-memory data, kept out of the context-bearing run.
func renderCapTransient(opt Options, cores int, budget float64, r *mcd.ChipResult) Report {
	lines := []string{
		fmt.Sprintf("%-9s %9s %9s  %-*s  %s",
			"t(us)", "total(W)", "err(W)", 7*len(r.Cores)-1, "per-core P(W)", "per-core cap(MHz)"),
	}
	// Print at most ~80 epochs; long runs are strided deterministically
	// but the final epoch is always shown.
	stride := (len(r.EpochTrace) + 79) / 80
	for i, s := range r.EpochTrace {
		if i%stride != 0 && i != len(r.EpochTrace)-1 {
			continue
		}
		pw := make([]string, len(s.CorePowerW))
		for c, w := range s.CorePowerW {
			pw[c] = fmt.Sprintf("%6.2f", w)
		}
		caps := make([]string, len(s.CapMHz))
		for c, m := range s.CapMHz {
			caps[c] = fmt.Sprintf("%.0f", m)
		}
		total := s.TotalPowerW()
		lines = append(lines, fmt.Sprintf("%-9.1f %9.2f %+9.2f  %s  %s",
			s.Time.Seconds()*1e6, total, total-budget, strings.Join(pw, " "), strings.Join(caps, " ")))
	}

	notes := []string{
		fmt.Sprintf("%d cores, benchmarks round-robin %s, scheme adaptive, budget %.1f W, gain %g MHz/W, epoch %gus",
			cores, strings.Join(capBenchNames(opt), "/"), budget, capGain(opt), float64(mcd.DefaultEpoch)/float64(clock.Microsecond)),
	}
	for i, c := range r.Cores {
		notes = append(notes, fmt.Sprintf("core %d (%s) finishes at %.1f us", i, c.Benchmark, c.Metrics.ExecTime.Seconds()*1e6))
	}
	if stride := (len(r.EpochTrace) + 79) / 80; stride > 1 {
		notes = append(notes, fmt.Sprintf("trace strided: every %dth of %d epochs (final epoch always shown)", stride, len(r.EpochTrace)))
	}
	notes = append(notes, "watch err(W) re-converge toward zero a few epochs after each core finish: the governor reallocates the finisher's share to the survivors")
	return Report{
		ID:    "captransient",
		Title: "Chip power-budget reallocation transient (integral-gain governor)",
		Lines: lines,
		Notes: notes,
	}
}

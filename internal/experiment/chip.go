package experiment

import (
	"context"
	"fmt"

	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// DefaultChipBenchmarks is the heterogeneous per-core workload set the
// chip artifacts assign round-robin when the caller names none: one
// media codec, one integer SPEC, one FP SPEC, and one short codec, so
// a 4-core chip mixes demand profiles and finish times — the mixture
// the budget-reallocation transient needs.
var DefaultChipBenchmarks = []string{"epic_decode", "gzip", "swim", "adpcm_encode"}

// RunChip simulates an N-core chip with per-core workloads assigned
// round-robin from benchmarks (nil = DefaultChipBenchmarks), under one
// scheme per domain controller and the configured chip governor.
func RunChip(benchmarks []string, scheme Scheme, opt Options) (*mcd.ChipResult, error) {
	return RunChipContext(opt.ctx(), benchmarks, scheme, opt)
}

// RunChipContext is RunChip with explicit cancellation. It shares
// RunProfile's cache (in-process and, with Options.CacheDir, on disk):
// a governorless 1-core chip is the same run as RunProfile of its
// benchmark, simulated once, and its Cores[0] is the very *mcd.Result
// RunProfile returns. Results must be treated as read-only.
func RunChipContext(ctx context.Context, benchmarks []string, sch Scheme, opt Options) (*mcd.ChipResult, error) {
	ctx = orBackground(ctx)
	opt = opt.withDefaults()
	profs, err := chipBenchProfiles(benchmarks, opt)
	if err != nil {
		return nil, err
	}
	spec := newRunSpec(opt)
	if err := spec.validate(profs[0], sch); err != nil {
		return nil, err
	}
	return cachedRun(ctx, spec, profs, sch, nil, nil)
}

// chipBenchProfiles resolves the per-core workload assignment: one
// validated profile per core, round-robin from benchmarks (nil =
// DefaultChipBenchmarks). Pure setup, kept out of the context-bearing
// entry point.
func chipBenchProfiles(benchmarks []string, opt Options) ([]trace.Profile, error) {
	if len(benchmarks) == 0 {
		benchmarks = DefaultChipBenchmarks
	}
	profs := make([]trace.Profile, opt.chipCores())
	for i := range profs {
		prof, err := trace.ByName(benchmarks[i%len(benchmarks)])
		if err != nil {
			return nil, invalidSpec(err)
		}
		if err := prof.Validate(); err != nil {
			return nil, invalidSpec(err)
		}
		profs[i] = prof
	}
	return profs, nil
}

// chipProfiles expands a single benchmark across every core — the
// homogeneous chip a matrix cell or RunProfile call simulates (one
// core outside chip mode).
func chipProfiles(prof trace.Profile, opt Options) []trace.Profile {
	out := make([]trace.Profile, opt.chipCores())
	for i := range out {
		out[i] = prof
	}
	return out
}

// simulate is the one uncached run: build the chip (a single-core run
// is a 1-core governorless chip, bit for bit the single-processor
// machine), run it, and stamp the scheme on every core's Result. opt
// must already have defaults applied and been validated. bankSrc, when
// non-nil, supplies core 0's instruction stream (a matrix cell's
// trace-bank cursor); otherwise core 0 streams from the shared replay
// memo at its seed, bit-identical to generating it. ctx bounds the wait for
// that stream as well as the run. A panic anywhere below — trace
// generation, construction, the simulator hot loop — is recovered
// into ErrRunPanicked so one bad run cannot kill a sweep.
func simulate(ctx context.Context, profs []trace.Profile, scheme Scheme, opt Options, bankSrc func(context.Context, trace.Profile) (trace.Source, error)) (res *mcd.ChipResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%s/%s: %w: %v", runLabel(profs, opt), scheme, ErrRunPanicked, r)
		}
	}()
	var src0 trace.Source
	if bankSrc != nil {
		src0, err = bankSrc(ctx, profs[0])
	} else {
		src0, err = sharedReplays.source(ctx, profs[0], trace.StreamSeed(opt.Seed), opt.Instructions)
	}
	if err != nil {
		return nil, err
	}
	chip, srcs, err := buildChip(profs, scheme, opt, src0)
	if err != nil {
		return nil, err
	}
	res, err = chip.RunContext(ctx, srcs)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", runLabel(profs, opt), scheme, wrapRunErr(err))
	}
	for _, r := range res.Cores {
		r.Scheme = string(scheme)
	}
	return res, nil
}

// runLabel names a run in its errors: the benchmark outside chip mode,
// "chip" otherwise.
func runLabel(profs []trace.Profile, opt Options) string {
	if opt.chipMode() {
		return "chip"
	}
	return profs[0].Name
}

// buildChip constructs the chip — one machine per core, core i's clock
// and trace seeds offset by i so cores decorrelate (core 0 is exactly
// the single-core machine), the scheme's controllers attached to every
// core, the resolved governor, and one trace source per core. Core 0
// streams from src0; cores ≥ 1 stream from generators, so a wide chip
// records at most one trace up front. Pure setup, kept out of the
// context-bearing run path.
func buildChip(profs []trace.Profile, scheme Scheme, opt Options, src0 trace.Source) (*mcd.Chip, []trace.Source, error) {
	gdesc, err := validateChip(opt)
	if err != nil {
		return nil, nil, err
	}
	cfg := mcd.ChipConfig{
		Cores:        make([]mcd.Config, len(profs)),
		PowerCapW:    opt.PowerCapW,
		GovernorGain: opt.GovernorGain,
	}
	for i := range cfg.Cores {
		mc := opt.machine()
		mc.Seed += int64(i)
		cfg.Cores[i] = mc
	}
	chip, err := mcd.NewChip(cfg)
	if err != nil {
		return nil, nil, invalidSpec(err)
	}
	for i := 0; i < chip.Cores(); i++ {
		if err := attach(chip.Core(i), scheme, opt); err != nil {
			return nil, nil, err
		}
	}
	gov, err := gdesc.New(opt.governorOptions())
	if err != nil {
		return nil, nil, invalidSpec(err)
	}
	chip.SetGovernor(gov)
	srcs := make([]trace.Source, len(profs))
	srcs[0] = src0
	for i := 1; i < len(srcs); i++ {
		if srcs[i], err = trace.NewGenerator(profs[i], trace.StreamSeed(opt.Seed+int64(i)), opt.Instructions); err != nil {
			return nil, nil, invalidSpec(err)
		}
	}
	return chip, srcs, nil
}

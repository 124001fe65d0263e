package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"mcddvfs/internal/control"
	"mcddvfs/internal/isa"
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

// RunChipContext is RunChip with explicit cancellation. Results are
// memoized like RunProfile's (in-process and, with Options.CacheDir,
// on disk) and must be treated as read-only.
func RunChipContext(ctx context.Context, benchmarks []string, sch Scheme, opt Options) (*mcd.ChipResult, error) {
	opt = opt.withDefaults()
	profs, err := chipBenchProfiles(benchmarks, opt)
	if err != nil {
		return nil, err
	}
	if err := validateRun(profs[0], sch, opt); err != nil {
		return nil, err
	}
	return runChipCell(ctx, profs, sch, opt)
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
// homogeneous chip a chip-mode matrix cell simulates.
func chipProfiles(prof trace.Profile, opt Options) []trace.Profile {
	out := make([]trace.Profile, opt.chipCores())
	for i := range out {
		out[i] = prof
	}
	return out
}

// chipCacheKey hashes the complete chip-simulation input. It extends
// the single-core cacheKey contract with the chip shape — per-core
// profiles, core count, budget, governor, gain — and a Kind tag that
// keeps chip entries in a disjoint keyspace from single-core Results
// (the two decode into different types from the same disk store). The
// same exclusions apply: Benchmarks/Schemes/CacheDir/CorpusDir and the
// rest of the waived fields select or store runs, they never change
// what one computes. opt must already have defaults applied.
func chipCacheKey(profs []trace.Profile, scheme Scheme, opt Options) ([sha256.Size]byte, error) {
	mutated := make([]control.Config, isa.NumExecDomains)
	for d := 0; d < isa.NumExecDomains; d++ {
		cfg := control.DefaultConfig(isa.ExecDomain(d))
		if opt.MutateAdaptive != nil {
			opt.MutateAdaptive(&cfg)
		}
		mutated[d] = cfg
	}
	key := struct {
		Format           int
		Kind             string
		Profiles         []trace.Profile
		Scheme           Scheme
		Instructions     int64
		Seed             int64
		PIDIntervalTicks int
		Machine          mcd.Config
		Adaptive         []control.Config
		Cores            int
		PowerCapW        float64
		Governor         string
		GovernorGain     float64
	}{
		Format:           keyFormat,
		Kind:             "chip",
		Profiles:         profs,
		Scheme:           scheme,
		Instructions:     opt.Instructions,
		Seed:             opt.Seed,
		PIDIntervalTicks: opt.PIDIntervalTicks,
		Machine:          opt.machine(),
		Adaptive:         mutated,
		Cores:            opt.chipCores(),
		PowerCapW:        opt.PowerCapW,
		Governor:         opt.governorName(),
		GovernorGain:     opt.GovernorGain,
	}
	blob, err := json.Marshal(&key)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("experiment: chip cache key: %w", err)
	}
	return sha256.Sum256(blob), nil
}

// chipCache is the chip-level twin of resultCache: same single-flight
// protocol, same enablement switch, same disk tier, separate entry map
// because the cached type differs.
var chipCache = struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*chipCacheEntry
}{entries: make(map[[sha256.Size]byte]*chipCacheEntry)}

type chipCacheEntry struct {
	done chan struct{}
	res  *mcd.ChipResult
	err  error
}

// resetChipCache drops every memoized chip result (ResetCache calls
// it).
func resetChipCache() {
	chipCache.mu.Lock()
	chipCache.entries = make(map[[sha256.Size]byte]*chipCacheEntry)
	chipCache.mu.Unlock()
}

// runChipCell is the cached chip run path shared by chip-mode matrix
// cells and RunChipContext. opt must already have defaults applied and
// been validated.
func runChipCell(ctx context.Context, profs []trace.Profile, scheme Scheme, opt Options) (*mcd.ChipResult, error) {
	resultCache.mu.Lock()
	enabled := resultCache.enabled
	resultCache.mu.Unlock()
	if !enabled {
		return runChip(ctx, profs, scheme, opt)
	}
	key, err := chipCacheKey(profs, scheme, opt)
	if err != nil {
		return nil, err
	}
	chipCache.mu.Lock()
	if e, ok := chipCache.entries[key]; ok {
		chipCache.mu.Unlock()
		countCache(true)
		<-e.done
		return e.res, e.err
	}
	e := &chipCacheEntry{done: make(chan struct{})}
	chipCache.entries[key] = e
	chipCache.mu.Unlock()
	countCache(false)

	store := diskStore(opt)
	func() {
		defer close(e.done)
		if store != nil && ctx.Err() == nil {
			var res mcd.ChipResult
			if derr := store.Get(key, &res); derr == nil {
				e.res = &res
				return
			}
		}
		e.res, e.err = runChip(ctx, profs, scheme, opt)
		if e.err == nil && store != nil {
			store.Put(key, e.res) //nolint:errcheck // cache write is best-effort
		}
	}()
	if e.err != nil && transientErr(e.err) {
		chipCache.mu.Lock()
		if chipCache.entries[key] == e {
			delete(chipCache.entries, key)
		}
		chipCache.mu.Unlock()
	}
	return e.res, e.err
}

// countCache folds chip-cache traffic into the shared CacheStats
// counters.
func countCache(hit bool) {
	resultCache.mu.Lock()
	if hit {
		resultCache.hits++
	} else {
		resultCache.misses++
	}
	resultCache.mu.Unlock()
}

// runChip is the uncached chip simulation: build one machine per core
// (core i's clock and trace seeds offset by i so cores decorrelate;
// core 0 matches the single-core path exactly), attach the scheme's
// controllers to every core, resolve and attach the governor, and run.
// Panics are recovered into ErrRunPanicked like any single-core cell.
func runChip(ctx context.Context, profs []trace.Profile, scheme Scheme, opt Options) (res *mcd.ChipResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("chip/%s: %w: %v", scheme, ErrRunPanicked, r)
		}
	}()
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	chip, srcs, err := buildChip(profs, scheme, opt)
	if err != nil {
		return nil, err
	}
	cr, err := chip.RunContext(ctx, srcs)
	if err != nil {
		return nil, fmt.Errorf("chip/%s: %w", scheme, wrapRunErr(err))
	}
	for _, r := range cr.Cores {
		r.Scheme = string(scheme)
	}
	return cr, nil
}

// buildChip constructs the chip — one machine per core with the
// core-index seed offsets, the scheme's controllers attached to every
// core, the resolved governor, and one trace source per core. Pure
// setup, kept out of the context-bearing run path.
func buildChip(profs []trace.Profile, scheme Scheme, opt Options) (*mcd.Chip, []trace.Source, error) {
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
	for i := range srcs {
		gen, gerr := trace.NewGenerator(profs[i], trace.StreamSeed(opt.Seed+int64(i)), opt.Instructions)
		if gerr != nil {
			return nil, nil, invalidSpec(gerr)
		}
		srcs[i] = gen
	}
	return chip, srcs, nil
}

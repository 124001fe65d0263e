package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"mcddvfs/internal/control"
	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/flight"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// The result cache memoizes every harness run — RunProfile, matrix
// cells and RunChip alike — keyed by a content hash of everything that
// determines a simulation: the per-core workload profiles, the scheme,
// and the canonicalized options (instruction budget, seed, machine
// configuration — including the fault spec — PID interval, the
// *effect* of MutateAdaptive, and in chip mode the chip shape). Every
// run is an N-core chip: a single-core run is a 1-core governorless
// chip, whose only core is bit for bit the single-processor machine,
// and single-core callers read that core back through
// ChipResult.Aggregate. The harness regenerates Tables 2-4, Figures
// 7-11, the E1-E5 extensions and the chip artifacts from overlapping
// (workload, scheme, options) triples; with the cache each distinct
// triple is simulated exactly once per process.
//
// Caching is two-level. The first level is an in-process memo of
// completed outcomes; concurrent requests for a key not yet memoized
// share one resolution on a flight.Group (see cachedRun). The second,
// optional level is a persistent content-addressed store on disk
// (internal/diskcache, enabled by Options.CacheDir): an in-process miss
// consults the store before simulating, and a clean simulation is
// written back, so completed cells survive process death and a warm
// re-render only decodes. Errors never reach disk, and transient ones
// (timeout, cancellation) are not memoized either: they describe an
// attempt, not the simulation.
//
// Cached *mcd.ChipResult values, and the *mcd.Result values callers
// reach through them, are shared between callers and MUST be treated
// as read-only. The one historical mutation site — RunMatrix stripping
// QueueSamples from non-baseline cells — copies the struct first.
//
// A simulation is deterministic, so caching never changes any value a
// caller observes; it only removes duplicate work.
var resultCache = struct {
	mu      sync.Mutex
	enabled bool
	gen     uint64 // bumped by ResetCache; a resolution memoizes only into its own generation
	memo    map[[sha256.Size]byte]outcome
	flights flight.Group[[sha256.Size]byte, outcome]
	runs    uint64 // cached calls this generation; hits = runs - misses
	misses  uint64 // resolutions that went to disk or simulated
}{enabled: true, memo: make(map[[sha256.Size]byte]outcome)}

// outcome is one resolved run: a result or a non-transient error.
type outcome struct {
	res *mcd.ChipResult
	err error
}

// SetCaching enables or disables result memoization (both the
// in-process level and the disk level). It is enabled by default;
// disabling is useful for A/B-validating that the cache is transparent
// (artifacts must be byte-identical either way).
func SetCaching(on bool) {
	resultCache.mu.Lock()
	defer resultCache.mu.Unlock()
	resultCache.enabled = on
}

// ResetCache drops every memoized in-process result and zeroes the
// hit/miss counters. On-disk entries are untouched (delete the cache
// directory to force a cold run).
func ResetCache() {
	resultCache.mu.Lock()
	resultCache.gen++
	resultCache.memo = make(map[[sha256.Size]byte]outcome)
	resultCache.runs = 0
	resultCache.misses = 0
	resultCache.mu.Unlock()
	sharedReplays.reset()
}

// CacheStats reports how many runs (RunProfile, matrix cells, RunChip)
// were served from memory versus not (disk hits count as misses here;
// see DiskCacheStats).
func CacheStats() (hits, misses uint64) {
	resultCache.mu.Lock()
	defer resultCache.mu.Unlock()
	return resultCache.runs - resultCache.misses, resultCache.misses
}

// diskStores holds one open store per cache directory, created
// lazily. A store that fails to open is recorded as nil, with its own
// open error, so a misconfigured directory degrades to uncached
// operation once instead of erroring every run.
var diskStores = struct {
	mu       sync.Mutex
	stores   map[string]*diskcache.Store
	openErrs map[string]error
	firstErr error // the first open failure, in open order
}{stores: make(map[string]*diskcache.Store), openErrs: make(map[string]error)}

// diskStore returns the store for opt.CacheDir, opening it on first
// use, or nil when disk caching is off (empty CacheDir) or the
// directory is unusable.
func diskStore(opt Options) *diskcache.Store {
	if opt.CacheDir == "" {
		return nil
	}
	s, _ := DiskStore(opt.CacheDir, opt.CacheMaxBytes)
	return s
}

// DiskStore returns the process-wide store for dir, opening it on
// first use with the given size budget (later calls reuse the first
// store regardless of maxBytes). Every harness run with
// Options.CacheDir == dir goes through the returned store, so an
// operator attaching an observer or swapping the FS (chaos injection,
// circuit breaking in internal/serve) sees exactly the traffic the
// runs generate. The error reports why dir is unusable; such a
// directory is cached as nil, later calls return the same error, and
// runs against it silently degrade to uncached simulation.
func DiskStore(dir string, maxBytes int64) (*diskcache.Store, error) {
	if dir == "" {
		return nil, invalidSpec(fmt.Errorf("experiment: DiskStore: empty cache directory"))
	}
	diskStores.mu.Lock()
	defer diskStores.mu.Unlock()
	if s, ok := diskStores.stores[dir]; ok {
		return s, diskStores.openErrs[dir]
	}
	s, err := diskcache.Open(dir, maxBytes)
	if err != nil {
		s = nil
		diskStores.openErrs[dir] = err
		if diskStores.firstErr == nil {
			diskStores.firstErr = err
		}
	}
	diskStores.stores[dir] = s
	return s, err
}

// DiskCacheStats aggregates traffic over every store this process
// opened, plus the first open error (nil when every directory was
// usable). A non-nil error means runs fell back to simulation.
func DiskCacheStats() (diskcache.Stats, error) {
	diskStores.mu.Lock()
	defer diskStores.mu.Unlock()
	var total diskcache.Stats
	for _, s := range diskStores.stores {
		if s == nil {
			continue
		}
		st := s.Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Writes += st.Writes
		total.Corrupt += st.Corrupt
		total.Stale += st.Stale
		total.Evictions += st.Evictions
		total.ReadErrors += st.ReadErrors
		total.WriteErrors += st.WriteErrors
		total.Retries += st.Retries
	}
	return total, diskStores.firstErr
}

// cacheKey hashes the complete simulation input: profs holds one
// workload profile per core. Options.Benchmarks and Options.Schemes
// are deliberately excluded: they select which runs happen, not what
// any individual run computes — a cell simulated for a subset matrix
// must hit the same warm disk-cache entry as the full sweep.
// CacheDir/CacheMaxBytes/CorpusDir and the rest of the waived fields
// are excluded for the same reason — they select or store runs, they
// never change what one computes. The scheme enters the key as its
// registry name only. MutateAdaptive is a function and cannot be
// hashed directly; it is canonicalized by its observable effect — the
// controller configuration it produces from each domain's default.
//
// There are two hash structs, and both are part of the byte-stability
// contract (TestCacheKeyGolden, TestChipCacheKeyGolden), so a refactor
// must never reorder or retype their fields. A run outside chip mode —
// one core, no budget, no governor — hashes the legacy single-core
// struct, so warm entries written before chip support still hit. A
// chip-mode run also hashes the chip shape — per-core profiles, core
// count, budget, governor, gain — under a Kind tag that keeps it in a
// keyspace disjoint from the legacy one (the two store different entry
// types; see cachedRun). The Format field versions the key derivation
// itself and stays at keyFormat; the entry encoding is versioned
// separately in each entry's header (diskcache.FormatVersion), so an
// encoding change retires old entries at the same keys without moving
// them. opt must already have defaults applied.
func cacheKey(profs []trace.Profile, scheme Scheme, opt Options) ([sha256.Size]byte, error) {
	mutated := make([]control.Config, isa.NumExecDomains)
	for d := 0; d < isa.NumExecDomains; d++ {
		cfg := control.DefaultConfig(isa.ExecDomain(d))
		if opt.MutateAdaptive != nil {
			opt.MutateAdaptive(&cfg)
		}
		mutated[d] = cfg
	}
	var key any
	if !opt.chipMode() {
		key = struct {
			Format           int
			Profile          trace.Profile
			Scheme           Scheme
			Instructions     int64
			Seed             int64
			PIDIntervalTicks int
			Machine          mcd.Config
			Adaptive         []control.Config
		}{
			Format:           keyFormat,
			Profile:          profs[0],
			Scheme:           scheme,
			Instructions:     opt.Instructions,
			Seed:             opt.Seed,
			PIDIntervalTicks: opt.PIDIntervalTicks,
			Machine:          opt.machine(),
			Adaptive:         mutated,
		}
	} else {
		key = struct {
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
	}
	blob, err := json.Marshal(key)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("experiment: cache key: %w", err)
	}
	return sha256.Sum256(blob), nil
}

// keyFormat is the Format field of every cache key. It versions the
// key derivation alone — the entry encoding is versioned in each entry
// header by diskcache.FormatVersion — so encoding bumps keep every key
// (TestCacheKeyGolden). Change it only when the derivation changes.
const keyFormat = 1

// cachedRun returns the memoized chip result for (profs, scheme, opt)
// or resolves it. The resolution runs detached from every caller: each
// caller waits only until its own context ends or opt.Timeout expires,
// and the simulation is cancelled once its last waiter leaves. bankSrc
// is handed to simulate (core 0's stream) and is only invoked if the
// run actually simulates. opt must already have defaults applied and
// been validated.
func cachedRun(ctx context.Context, profs []trace.Profile, scheme Scheme, opt Options, bankSrc func(context.Context, trace.Profile) (trace.Source, error)) (*mcd.ChipResult, error) {
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	resultCache.mu.Lock()
	if !resultCache.enabled {
		resultCache.mu.Unlock()
		return simulate(ctx, profs, scheme, opt, bankSrc)
	}
	k, err := cacheKey(profs, scheme, opt)
	if err != nil {
		resultCache.mu.Unlock()
		return nil, err
	}
	resultCache.runs++
	o, ok := resultCache.memo[k]
	gen := resultCache.gen
	resultCache.mu.Unlock()
	if !ok {
		o, err = await(ctx, k, gen, profs, scheme, opt, bankSrc)
	}
	if err != nil {
		return nil, err
	}
	return o.res, o.err
}

// await joins or starts the flight resolving key k and waits for it
// as long as ctx allows. It is split from cachedRun so that a memo hit
// does not pay for the flight closure's captures.
func await(ctx context.Context, k [sha256.Size]byte, gen uint64, profs []trace.Profile, scheme Scheme, opt Options, bankSrc func(context.Context, trace.Profile) (trace.Source, error)) (outcome, error) {
	o, _, err := resultCache.flights.Do(ctx, k, func(ctx context.Context) (outcome, error) {
		return resolve(ctx, k, gen, profs, scheme, opt, bankSrc), nil
	})
	if err != nil {
		return o, fmt.Errorf("%s/%s: %w", runLabel(profs, opt), scheme, wrapRunErr(err))
	}
	return o, nil
}

// resolve produces key k's outcome on a flight's context: from the
// memo if a flight completed it since the caller looked, else from
// disk, else by simulating. ctx gates the disk probe; a cancelled
// flight falls straight through to simulate, which honors it. Any disk
// failure falls back to simulation (Get already healed bad entries).
// Misses and non-transient outcomes are recorded only in generation
// gen, so a flight that outlives ResetCache cannot write into the
// fresh memo.
//
// On disk, a legacy-key run stores its one core as a plain mcd.Result,
// the entry type that predates chip support, so existing warm caches
// still hit; the 1-core chip result is rebuilt from it exactly. Chip
// keys store the whole mcd.ChipResult.
func resolve(ctx context.Context, k [sha256.Size]byte, gen uint64, profs []trace.Profile, scheme Scheme, opt Options, bankSrc func(context.Context, trace.Profile) (trace.Source, error)) (o outcome) {
	resultCache.mu.Lock()
	o, ok := resultCache.memo[k]
	if !ok && resultCache.gen == gen {
		resultCache.misses++
	}
	resultCache.mu.Unlock()
	if ok {
		return o
	}
	defer func() {
		resultCache.mu.Lock()
		if resultCache.gen == gen && !transientErr(o.err) {
			resultCache.memo[k] = o
		}
		resultCache.mu.Unlock()
	}()
	store := diskStore(opt)
	legacy := !opt.chipMode()
	if store != nil && ctx.Err() == nil {
		if legacy {
			var res mcd.Result
			if store.Get(k, &res) == nil {
				return outcome{res: &mcd.ChipResult{Cores: []*mcd.Result{&res}, Metrics: res.Metrics}}
			}
		} else {
			var res mcd.ChipResult
			if store.Get(k, &res) == nil {
				return outcome{res: &res}
			}
		}
	}
	o.res, o.err = simulate(ctx, profs, scheme, opt, bankSrc)
	if o.err == nil && store != nil {
		var entry any = o.res
		if legacy {
			entry = o.res.Cores[0]
		}
		store.Put(k, entry) //nolint:errcheck // best-effort: a failed write costs this cell's persistence
	}
	return o
}

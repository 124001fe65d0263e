package experiment

import (
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mcddvfs/internal/control"
	"mcddvfs/internal/trace"
)

// smallOpt keeps cache tests fast: two benchmarks, short runs, on a
// harness of the test's own.
func smallOpt() Options {
	return Options{Instructions: 20000, Seed: 3, Benchmarks: []string{"gzip", "swim"}, Harness: NewHarness()}
}

// uncached returns opt on an empty harness of its own, so a run through
// it simulates and a test using it can run in parallel.
func uncached(opt Options) Options {
	opt.Harness = NewHarness()
	return opt
}

// TestCacheTransparent asserts the determinism contract: a matrix
// served from a harness's memo and the same matrix simulated on
// another, empty harness produce identical metrics, cell for cell.
func TestCacheTransparent(t *testing.T) {
	t.Parallel()
	opt := smallOpt()
	if _, err := RunMatrixContext(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	warm, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := opt.Harness.cacheStats(); hits != misses {
		t.Fatalf("second matrix: %d hits for %d simulations, want every cell served from memory", hits, misses)
	}
	cold, err := RunMatrixContext(context.Background(), uncached(opt))
	if err != nil {
		t.Fatal(err)
	}

	for _, b := range opt.Benchmarks {
		for s, want := range cold.Results[b] {
			got := warm.Results[b][s]
			if got == nil {
				t.Fatalf("%s/%s missing from cached matrix", b, s)
			}
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Errorf("%s/%s metrics differ: uncached %+v cached %+v", b, s, want.Metrics, got.Metrics)
			}
			if want.IPC != got.IPC || want.L1DMissRate != got.L1DMissRate {
				t.Errorf("%s/%s rates differ", b, s)
			}
		}
	}
}

// TestCacheDedupes asserts each distinct (profile, scheme, options)
// triple is simulated once per process: a second identical matrix is
// served entirely from memory, and the shared baseline results keep
// their QueueSamples even though the matrix strips its own copies.
func TestCacheDedupes(t *testing.T) {
	t.Parallel()
	opt := smallOpt()

	m1, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	_, misses1 := opt.Harness.cacheStats()
	cells := uint64(len(opt.Benchmarks) * (1 + len(ControlledSchemes())))
	if misses1 != cells {
		t.Fatalf("first matrix simulated %d cells, want %d", misses1, cells)
	}

	m2, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses2 := opt.Harness.cacheStats()
	if misses2 != cells {
		t.Fatalf("second matrix re-simulated: %d misses, want still %d", misses2, cells)
	}
	if hits != cells {
		t.Fatalf("second matrix hit %d times, want %d", hits, cells)
	}
	for _, b := range opt.Benchmarks {
		if m1.Results[b][SchemeNone] != m2.Results[b][SchemeNone] {
			t.Errorf("%s baseline not shared between matrices", b)
		}
		if len(m1.Results[b][SchemeNone].QueueSamples) == 0 {
			t.Errorf("%s baseline lost its queue samples", b)
		}
		if m1.Results[b][SchemeAdaptive].QueueSamples != nil {
			t.Errorf("%s adaptive cell kept queue samples", b)
		}
	}

	// A distinct seed is a different simulation, never a hit.
	opt2 := opt
	opt2.Seed = opt.Seed + 1
	if _, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt2); err != nil {
		t.Fatal(err)
	}
	if _, misses := opt.Harness.cacheStats(); misses != cells+1 {
		t.Errorf("changed seed did not trigger a simulation")
	}
}

// TestCacheKeyCanonicalizesMutator asserts MutateAdaptive is keyed by
// its effect, not its identity: two distinct closures with the same
// effect share one simulation, and an effectively different closure
// does not.
func TestCacheKeyCanonicalizesMutator(t *testing.T) {
	t.Parallel()
	opt := smallOpt()

	opt.MutateAdaptive = func(c *control.Config) { c.TM0 *= 2 }
	if _, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt); err != nil {
		t.Fatal(err)
	}
	opt.MutateAdaptive = func(c *control.Config) { c.TM0 *= 2 } // same effect, new closure
	if _, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt); err != nil {
		t.Fatal(err)
	}
	if hits, misses := opt.Harness.cacheStats(); hits != 1 || misses != 1 {
		t.Errorf("same-effect mutators: %d hits / %d misses, want 1/1", hits, misses)
	}

	opt.MutateAdaptive = func(c *control.Config) { c.TM0 *= 3 }
	if _, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt); err != nil {
		t.Fatal(err)
	}
	if _, misses := opt.Harness.cacheStats(); misses != 2 {
		t.Errorf("different-effect mutator was served from cache")
	}
}

// TestCacheKeyGolden pins the result-cache key of a plain single core
// for the four seed schemes (gzip, Instructions 20000, Seed 3,
// defaults applied): a 1-core, unbudgeted, ungoverned chip. These keys
// address warm on-disk cache entries, so ANY drift — field order,
// type, the scheme's representation in the key — silently invalidates
// every cache a user has built. If this test fails, the fix is to
// restore the key derivation, not to update the constants. Keys no
// longer follow the entry encoding: a diskcache.FormatVersion bump
// retires old entries through their headers and leaves these keys
// alone; only a deliberate keyFormat change may move them. The
// defaults spelled out — one core, the "none" governor — key the
// same entries as the defaults left zero.
func TestCacheKeyGolden(t *testing.T) {
	golden := map[Scheme]string{
		SchemeNone:        "1e07e209dadd9ba138e881973794f03f4221f26592085f66bbad15afd016aaf8",
		SchemeAdaptive:    "8b598b315394a17f4fab320368626ce433a6930d2fa641762a37dda196ce9d67",
		SchemePID:         "aebc7618647c985fb63e60483d5a767613996492d7365737114eaca33b2ef260",
		SchemeAttackDecay: "bdc6b4013bf1482e7ebcdb0f43c0c55901a44f56284cd9c9106174c8b9d6f7f8",
	}
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{Instructions: 20000, Seed: 3},
		{Instructions: 20000, Seed: 3, Cores: 1, Governor: "none"},
		{Instructions: 20000, Seed: 3, Cores: 0, Governor: "none"},
	} {
		opt = opt.withDefaults()
		for sch, want := range golden {
			k, err := cacheKey([]trace.Profile{prof}, sch, &runSpec{opt: opt})
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(k[:]); got != want {
				t.Errorf("Cores %d, Governor %q, %s: cache key %s, want %s — existing disk caches no longer hit", opt.Cores, opt.Governor, sch, got, want)
			}
		}
	}
	// Options.Schemes must never enter the key: a cell simulated for a
	// subset matrix shares warm entries with the full sweep.
	opt := Options{Instructions: 20000, Seed: 3}.withDefaults()
	sub := opt
	sub.Schemes = []Scheme{SchemeAdaptive}
	k1, _ := cacheKey([]trace.Profile{prof}, SchemeAdaptive, &runSpec{opt: opt})
	k2, _ := cacheKey([]trace.Profile{prof}, SchemeAdaptive, &runSpec{opt: sub})
	if k1 != k2 {
		t.Error("Options.Schemes leaked into the cache key")
	}
}

// TestChipCacheKeyGolden pins the key of a wider chip (gzip on 4 cores
// under a 30 W integral-gain cap, Instructions 20000, Seed 3) the same
// way TestCacheKeyGolden pins the single-core one: warm chip entries must
// keep their addresses across encoding bumps.
func TestChipCacheKeyGolden(t *testing.T) {
	golden := map[Scheme]string{
		SchemeNone:     "6319ffac7f2044e0840562787dd6fa782341dbaf5dd97ec079dd2e1b3a0263a7",
		SchemeAdaptive: "979f72058728d5fb092b247da0e634f1fc48d2913b1158216f92960b53b04604",
	}
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Instructions: 20000, Seed: 3, Cores: 4, PowerCapW: 30, Governor: "integral-gain"}.withDefaults()
	for sch, want := range golden {
		k, err := cacheKey(chipProfiles(prof, opt), sch, &runSpec{opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(k[:]); got != want {
			t.Errorf("%s: chip cache key %s, want %s — existing disk caches no longer hit", sch, got, want)
		}
	}
}

// TestCacheSingleFlight asserts concurrent identical requests run one
// simulation and share its result.
func TestCacheSingleFlight(t *testing.T) {
	t.Parallel()
	opt := smallOpt()

	const callers = 8
	results := make([]interface{}, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt)
			if err != nil {
				results[i] = err
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
	if hits, misses := opt.Harness.cacheStats(); misses != 1 {
		t.Errorf("%d simulations for one key (hits %d), want 1", misses, hits)
	}
}

// TestSingleCoreChipSharesRunProfile asserts a single-core run and a
// governorless 1-core chip of the same spec are one run: one
// simulation, and the chip's only core is the very Result RunProfile
// returned.
func TestSingleCoreChipSharesRunProfile(t *testing.T) {
	t.Parallel()
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOpt()
	res, err := RunProfileContext(context.Background(), prof, SchemeAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	chipOpt := opt
	chipOpt.Cores, chipOpt.Governor = 1, "none"
	cr, err := RunChipContext(context.Background(), []string{"gzip"}, SchemeAdaptive, chipOpt)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := opt.Harness.cacheStats(); hits != 1 || misses != 1 {
		t.Errorf("cache stats %d hits / %d misses, want 1 / 1 (one simulation)", hits, misses)
	}
	if len(cr.Cores) != 1 || cr.Cores[0] != res {
		t.Error("1-core chip does not share RunProfile's cached Result")
	}
}

// TestWideChipRecordsOneTrace asserts a multi-core run records at most
// core 0's trace into the shared replay cache: cores ≥ 1 stream from
// generators, so a wide chip allocates no per-core recordings before
// its run (and its timeout) starts.
func TestWideChipRecordsOneTrace(t *testing.T) {
	t.Parallel()
	opt := smallOpt()
	opt.Cores, opt.PowerCapW = 8, 40
	if _, err := RunChipContext(context.Background(), []string{"gzip", "swim"}, SchemeAdaptive, opt); err != nil {
		t.Fatal(err)
	}
	replays := opt.Harness.replays
	replays.mu.Lock()
	n := len(replays.entries)
	replays.mu.Unlock()
	if n != 1 {
		t.Errorf("8-core chip left %d recordings in the replay cache, want 1 (core 0 only)", n)
	}
}

// TestMatrixRecordsEachBenchmarkOnce pins the matrix's memory
// contract on the replay memo: every scheme's cell of a benchmark
// replays one recording, and the benchmark's last cell drops it, so a
// finished matrix leaves no recording resident.
func TestMatrixRecordsEachBenchmarkOnce(t *testing.T) {
	t.Parallel()
	opt := smallOpt()
	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	replays := opt.Harness.replays
	replays.mu.Lock()
	recordings, resident := replays.recordings, len(replays.entries)
	replays.mu.Unlock()
	if recordings != len(m.Benchmarks) {
		t.Errorf("%d recordings for %d benchmarks, want one each", recordings, len(m.Benchmarks))
	}
	if resident != 0 {
		t.Errorf("finished matrix left %d recordings resident, want 0", resident)
	}
}

// TestForEachParallelErrorIndex asserts the pool collects every
// failure sorted by index, runs the healthy tasks to completion
// anyway, and that firstError names the lowest failing index.
func TestForEachParallelErrorIndex(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("boom")
	var ran atomic.Int64
	errs := forEachParallel(context.Background(), 1000, func(i int) error {
		ran.Add(1)
		if i == 3 || i == 700 {
			return sentinel
		}
		return nil
	})
	if len(errs) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(errs), errs)
	}
	if errs[0].index != 3 || errs[1].index != 700 {
		t.Errorf("failure indices = %d, %d; want 3, 700", errs[0].index, errs[1].index)
	}
	for _, te := range errs {
		if !errors.Is(te.err, sentinel) {
			t.Errorf("task %d error does not wrap the task error: %v", te.index, te.err)
		}
	}
	if n := ran.Load(); n != 1000 {
		t.Errorf("pool ran %d tasks, want all 1000 despite failures", n)
	}

	err := firstError(errs)
	if err == nil {
		t.Fatal("firstError reported nil for a failed pool")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("firstError does not wrap the task error: %v", err)
	}
	if !strings.HasPrefix(err.Error(), "task 3:") {
		t.Errorf("firstError %q does not name the lowest failing task", err)
	}
}

// TestForEachParallelCompletes asserts every index runs exactly once on
// the success path.
func TestForEachParallelCompletes(t *testing.T) {
	t.Parallel()
	const n = 257
	var seen [n]atomic.Int32
	if errs := forEachParallel(context.Background(), n, func(i int) error {
		seen[i].Add(1)
		return nil
	}); len(errs) != 0 {
		t.Fatal(errs[0].err)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times", i, got)
		}
	}
}

// TestForEachParallelRecoversPanic asserts a panicking task is
// converted into an ErrRunPanicked failure for its own index while
// every other task still runs.
func TestForEachParallelRecoversPanic(t *testing.T) {
	t.Parallel()
	var ran atomic.Int64
	errs := forEachParallel(context.Background(), 64, func(i int) error {
		ran.Add(1)
		if i == 17 {
			panic("kaboom")
		}
		return nil
	})
	if n := ran.Load(); n != 64 {
		t.Errorf("pool ran %d tasks, want all 64 despite the panic", n)
	}
	if len(errs) != 1 {
		t.Fatalf("got %d failures, want 1: %v", len(errs), errs)
	}
	if errs[0].index != 17 {
		t.Errorf("failure index = %d, want 17", errs[0].index)
	}
	if !errors.Is(errs[0].err, ErrRunPanicked) {
		t.Errorf("panic not wrapped in ErrRunPanicked: %v", errs[0].err)
	}
	if !strings.Contains(errs[0].err.Error(), "kaboom") {
		t.Errorf("panic value lost from error: %v", errs[0].err)
	}
}

// TestForEachParallelCancellation asserts a cancelled context stops
// the pool from starting new tasks and marks the unstarted ones with
// ErrCancelled.
func TestForEachParallelCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	errs := forEachParallel(ctx, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if len(errs) != 100 {
		t.Fatalf("got %d failures, want every task cancelled", len(errs))
	}
	for _, te := range errs {
		if !errors.Is(te.err, ErrCancelled) {
			t.Fatalf("task %d error is not ErrCancelled: %v", te.index, te.err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d tasks ran under a pre-cancelled context", n)
	}
}

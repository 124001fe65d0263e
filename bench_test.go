package mcddvfs

// One benchmark per table/figure of the paper's evaluation (see the
// DESIGN.md experiment index), plus micro-benchmarks for the hot
// components. The macro benchmarks run reduced instruction budgets so
// `go test -bench=. -benchmem` completes in minutes; cmd/experiments
// regenerates the full-scale artifacts. Custom metrics report the
// headline quantity each artifact is about, so the bench output doubles
// as a miniature results table.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/serve"
	"mcddvfs/internal/spectrum"
	"mcddvfs/internal/trace"
)

// benchOpt returns the reduced-budget harness options for macro benches.
func benchOpt(insts int64, benches ...string) experiment.Options {
	return experiment.Options{Instructions: insts, Seed: 1, Benchmarks: benches}
}

// benchTraces keeps the traces the benchmarks record, for the whole
// process, as the default harness would.
var benchTraces = experiment.NewHarness()

// keyedWarmup runs one tiny keyed simulation per process.
var keyedWarmup sync.Once

// uncached returns a source of opt for one benchmark iteration each.
// Every iteration runs on a harness of its own — on a shared one,
// every iteration after the first would be a cache hit and ns/op would
// measure a map lookup, not a simulation — forked from benchTraces, so
// a stream recorded once replays in every later iteration and
// benchmark instead of being recorded again. The first call pays, off
// the clock, the process's one-time cost of deriving a cache key
// (encoding/json's type caches), so allocs/op counts per-run work
// whichever repeat of a benchmark is fastest.
func uncached(b *testing.B, opt experiment.Options) func() experiment.Options {
	b.StopTimer()
	keyedWarmup.Do(func() {
		warm := experiment.Options{Instructions: 1000, Seed: 1, Harness: experiment.NewHarness()}
		if _, err := experiment.RunOneContext(context.Background(), "gzip", experiment.SchemeNone, warm); err != nil {
			b.Fatal(err)
		}
	})
	b.StartTimer()
	return func() experiment.Options {
		opt.Harness = benchTraces.Fork()
		return opt
	}
}

// BenchmarkTable1Config regenerates the simulation-parameter table.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiment.Table1(experiment.DefaultOptions())
		if len(rep.Lines) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Classification regenerates the benchmark
// classification table (full suite, reduced budget).
func BenchmarkTable2Classification(b *testing.B) {
	next := uncached(b, benchOpt(100000))
	for i := 0; i < b.N; i++ {
		rep, classes, err := experiment.Table2(context.Background(), next())
		if err != nil {
			b.Fatal(err)
		}
		_ = rep
		b.ReportMetric(float64(len(experiment.FastGroup(classes))), "fast-benchmarks")
	}
}

// BenchmarkFigure7FrequencyTrace regenerates the epic_decode FP-domain
// frequency trajectory under the adaptive controller.
func BenchmarkFigure7FrequencyTrace(b *testing.B) {
	next := uncached(b, benchOpt(200000))
	for i := 0; i < b.N; i++ {
		rep, err := experiment.Figure7(context.Background(), next())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Lines) < 5 {
			b.Fatal("trace too short")
		}
	}
}

// BenchmarkFigure8Spectrum regenerates the INT-queue variance spectrum
// of epic_decode.
func BenchmarkFigure8Spectrum(b *testing.B) {
	next := uncached(b, benchOpt(150000))
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure8(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
}

// figureMatrix runs the shared benchmark × scheme grid for the three
// comparison figures.
func figureMatrix(b *testing.B, opt experiment.Options) *experiment.Matrix {
	b.Helper()
	m, err := experiment.RunMatrixContext(context.Background(), opt)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFigure9EnergySavings regenerates the per-benchmark energy
// savings comparison and reports the adaptive scheme's suite average.
func BenchmarkFigure9EnergySavings(b *testing.B) {
	next := uncached(b, benchOpt(60000))
	for i := 0; i < b.N; i++ {
		m := figureMatrix(b, next())
		rep := m.Figure9()
		if len(rep.Lines) < 18 {
			b.Fatalf("figure 9 has %d lines", len(rep.Lines))
		}
		b.ReportMetric(100*m.MeanComparison(experiment.SchemeAdaptive, nil).EnergySaving, "%energy-save")
	}
}

// BenchmarkFigure10PerfDegradation regenerates the performance
// degradation comparison.
func BenchmarkFigure10PerfDegradation(b *testing.B) {
	next := uncached(b, benchOpt(60000))
	for i := 0; i < b.N; i++ {
		m := figureMatrix(b, next())
		_ = m.Figure10()
		b.ReportMetric(100*m.MeanComparison(experiment.SchemeAdaptive, nil).PerfDegradation, "%perf-degr")
	}
}

// BenchmarkFigure11FastGroupEDP regenerates the fast-group EDP
// comparison (adaptive vs the fixed-interval schemes).
func BenchmarkFigure11FastGroupEDP(b *testing.B) {
	fast := []string{"adpcm_encode", "adpcm_decode", "g721_encode", "gsm_decode", "art"}
	next := uncached(b, benchOpt(60000, fast...))
	for i := 0; i < b.N; i++ {
		m, err := experiment.RunMatrixContext(context.Background(), next())
		if err != nil {
			b.Fatal(err)
		}
		_ = m.Figure11(fast)
		ad := m.MeanComparison(experiment.SchemeAdaptive, nil).EDPImprovement
		pid := m.MeanComparison(experiment.SchemePID, nil).EDPImprovement
		b.ReportMetric(100*ad, "%edp-adaptive")
		b.ReportMetric(100*pid, "%edp-pid")
	}
}

// BenchmarkTable3PIDIntervals regenerates the PID interval-length sweep.
func BenchmarkTable3PIDIntervals(b *testing.B) {
	next := uncached(b, benchOpt(60000))
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table3(context.Background(), next(), []string{"adpcm_encode", "gsm_decode"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Hardware regenerates the hardware-cost comparison.
func BenchmarkTable4Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiment.Table4()
		if len(rep.Lines) != 4 {
			b.Fatal("bad table4")
		}
	}
	b.ReportMetric(float64(control.AdaptiveHardware().Gates()), "adaptive-gates")
}

// BenchmarkStabilityRemarks regenerates the Section-4 analysis report
// (analytic quantities plus RK4 validation runs).
func BenchmarkStabilityRemarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RemarksReport(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationControllerFeatures regenerates the controller
// feature ablation on two representative benchmarks.
func BenchmarkAblationControllerFeatures(b *testing.B) {
	next := uncached(b, benchOpt(50000, "adpcm_encode", "gzip"))
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Ablation(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransitionStyles regenerates the XScale-vs-Transmeta
// transition-model comparison.
func BenchmarkTransitionStyles(b *testing.B) {
	next := uncached(b, benchOpt(50000, "adpcm_encode", "gzip"))
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TransitionStyles(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMatrix measures the benchmark × scheme sweep that feeds
// Figures 9-11 under three caching regimes: cold with the shared replay
// memo, warm from the in-process cache, and warm from the on-disk cache
// (models re-rendering after process death). Every regime reports
// cells/s — matrix cells retired per second — so BENCH_baseline.json
// gates it. warm-disk also reports disk-B/cell, the mean entry size
// each cell decodes.
func BenchmarkRunMatrix(b *testing.B) {
	opt := benchOpt(60000, "adpcm_encode", "gsm_decode", "gzip", "swim")
	check := func(m *experiment.Matrix, err error) int {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Failures) != 0 {
			b.Fatal(m.Failures[0].Error())
		}
		return len(m.Benchmarks) * (len(m.Schemes) + 1)
	}
	reportCells := func(b *testing.B, cells int) {
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	}

	b.Run("cold-shared-trace", func(b *testing.B) {
		next := uncached(b, opt)
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += check(experiment.RunMatrixContext(context.Background(), next()))
		}
		reportCells(b, cells)
	})
	b.Run("warm-memory", func(b *testing.B) {
		experiment.ResetCache()
		b.Cleanup(experiment.ResetCache)
		check(experiment.RunMatrixContext(context.Background(), opt)) // populate
		b.ResetTimer()
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += check(experiment.RunMatrixContext(context.Background(), opt))
		}
		reportCells(b, cells)
	})
	b.Run("warm-disk", func(b *testing.B) {
		dopt := opt
		dopt.CacheDir = b.TempDir()
		experiment.ResetCache()
		b.Cleanup(experiment.ResetCache)
		check(experiment.RunMatrixContext(context.Background(), dopt)) // populate the store
		entryBytes := diskBytesPerEntry(b, dopt.CacheDir)
		b.ResetTimer()
		cells := 0
		for i := 0; i < b.N; i++ {
			experiment.ResetCache() // drop memory: every cell decodes from disk
			cells += check(experiment.RunMatrixContext(context.Background(), dopt))
		}
		reportCells(b, cells)
		b.ReportMetric(entryBytes, "disk-B/cell")
	})
}

// diskHitEntries returns the cache entries of a sweep-shaped matrix,
// the one mcdbench's sweep workload reads back from disk: six
// benchmarks, two from each suite, under every scheme at 100,000
// instructions. It maps each entry's file name to its bytes, and
// simulates the matrix once per process.
var diskHitEntries = sync.OnceValues(func() (map[string][]byte, error) {
	dir, err := os.MkdirTemp("", "diskhit")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opt := benchOpt(100_000, "gsm_decode", "g721_encode", "mcf", "parser", "art", "mesa")
	opt.CacheDir, opt.Harness = dir, benchTraces.Fork()
	m, err := experiment.RunMatrixContext(context.Background(), opt)
	if err != nil {
		return nil, err
	}
	if len(m.Failures) != 0 {
		return nil, &m.Failures[0]
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil {
		return nil, err
	}
	entries := make(map[string][]byte, len(paths))
	for _, p := range paths {
		if entries[filepath.Base(p)], err = os.ReadFile(p); err != nil {
			return nil, err
		}
	}
	return entries, nil
})

// BenchmarkDiskHit measures the disk tier's warm read alone: a read of
// every entry of a sweep-shaped matrix (diskHitEntries) into an
// mcd.ChipResult, the entry type the harness stores for every run —
// the read, the checksums, and the entry codec's decode and checks.
// full reads each entry whole (diskcache.Store.Get), as the matrix
// reads its no-DVFS cells; head reads each without its occupancy
// series (GetHead), as it reads its controlled cells. One op is
// passesPerOp passes over the entries; entry-B/op counts the entry
// bytes an op reads and checksums (Stats.ReadBytes), a work count like
// allocs/op.
func BenchmarkDiskHit(b *testing.B) {
	b.Run("full", func(b *testing.B) { benchDiskHit(b, (*diskcache.Store).Get) })
	b.Run("head", func(b *testing.B) { benchDiskHit(b, (*diskcache.Store).GetHead) })
}

func benchDiskHit(b *testing.B, get func(*diskcache.Store, [sha256.Size]byte, diskcache.Unmarshaler) error) {
	const passesPerOp = 10
	entries, err := diskHitEntries()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	slices.Sort(names)
	keys := make([][sha256.Size]byte, len(names))
	for i, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), entries[name], 0o644); err != nil {
			b.Fatal(err)
		}
		if _, err := hex.Decode(keys[i][:], []byte(strings.TrimSuffix(name, ".res"))); err != nil {
			b.Fatal(err)
		}
	}
	store, err := diskcache.Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	pass := func() {
		for _, k := range keys {
			var res mcd.ChipResult
			if err := get(store, k, &res); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // fill the store's read-buffer pool
	runtime.GC()
	read := store.Stats().ReadBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < passesPerOp; p++ {
			pass()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(store.Stats().ReadBytes-read)/float64(b.N), "entry-B/op")
}

// BenchmarkRenderArtifact measures warm artifact renders, the bulk of
// mcdserve's traffic: each sub-benchmark renders its artifact once to
// fill the caches, then times repeats, which the render memo serves as
// one key derivation and one map lookup. fig9 walks the full 68-cell
// matrix when it does render; fig8 computes a multitaper spectrum. One
// op is a batch of rendersPerOp renders, so that a -benchtime 1x run
// times milliseconds rather than one render's few microseconds;
// ns/render reports the per-render figure.
func BenchmarkRenderArtifact(b *testing.B) {
	const rendersPerOp = 1000
	opt := benchOpt(10000)
	for _, tc := range []struct {
		id     string
		format experiment.ArtifactFormat
	}{
		{"fig9", experiment.FormatText},
		{"fig9", experiment.FormatSVG},
		{"fig8", experiment.FormatText},
	} {
		b.Run(tc.id+"-"+string(tc.format), func(b *testing.B) {
			experiment.ResetCache()
			b.Cleanup(experiment.ResetCache)
			want, _, err := RenderArtifact(tc.id, tc.format, opt)
			if err != nil {
				b.Fatal(err)
			}
			// Collect the cold render's garbage, then refill the
			// encoders' sync.Pools with one warm render, so no GC cycle
			// lands in the timed loop and allocs/op counts one warm
			// render exactly, even at -benchtime 1x.
			runtime.GC()
			if _, _, err := RenderArtifact(tc.id, tc.format, opt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < rendersPerOp; j++ {
					body, _, err := RenderArtifact(tc.id, tc.format, opt)
					if err != nil {
						b.Fatal(err)
					}
					if len(body) != len(want) {
						b.Fatalf("warm render is %d bytes, cold was %d", len(body), len(want))
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rendersPerOp), "ns/render")
		})
	}
}

// BenchmarkRenderKey measures the key mcdserve derives for a request
// before it looks the render up: the option checks and the render
// digest over the per-Options key half, which a warm harness has
// memoized. One op is a batch of keysPerOp keys, for the reason
// BenchmarkRenderArtifact batches renders; ns/key reports the per-key
// figure.
func BenchmarkRenderKey(b *testing.B) {
	const keysPerOp = 1000
	opt := benchOpt(10000)
	opt.Harness = experiment.NewHarness()
	key := func() string {
		p, err := experiment.PrepareRender("fig9", experiment.FormatText, opt)
		if err != nil {
			b.Fatal(err)
		}
		k, err := p.Key()
		if err != nil {
			b.Fatal(err)
		}
		return k
	}
	want := key()
	runtime.GC()
	key()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < keysPerOp; j++ {
			k := key()
			if k != want {
				b.Fatalf("warm key %s, cold was %s", k, want)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keysPerOp), "ns/key")
}

// BenchmarkServeWarmRequest measures a warm mcdserve request through
// the service's handler, without a network: decoding the spec,
// checking and keying it, the render memo lookup and the reply. The
// spec is fig9 over every benchmark, the bulk of the service's warm
// traffic. One op is a batch of requestsPerOp requests, for the reason
// BenchmarkRenderArtifact batches renders; ns/request reports the
// per-request figure.
func BenchmarkServeWarmRequest(b *testing.B) {
	const requestsPerOp = 1000
	srv, err := serve.New(serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck // nothing is in flight
	experiment.ResetCache()
	b.Cleanup(experiment.ResetCache)
	h := srv.Handler()
	spec := []byte(`{"artifact":"fig9","format":"txt","instructions":10000,"seed":1}`)
	request := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/render", bytes.NewReader(spec)))
		if rec.Code != http.StatusOK {
			b.Fatalf("render request: %d %s", rec.Code, rec.Body)
		}
		return rec
	}
	want := request().Body.Bytes()
	// As BenchmarkRenderArtifact does: collect the cold render's
	// garbage, then warm the pools with one warm request.
	runtime.GC()
	request()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < requestsPerOp; j++ {
			if got := request().Body.Bytes(); len(got) != len(want) {
				b.Fatalf("warm reply is %d bytes, cold was %d", len(got), len(want))
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requestsPerOp), "ns/request")
}

// BenchmarkClassify measures one benchmark's Section 5.2
// classification as the harness runs it: the INT, FP and LS occupancy
// series of one no-DVFS run, 30,000 samples each, classified through
// one spectrum plan.
func BenchmarkClassify(b *testing.B) {
	const n = 30000
	series := make([][]float64, 3)
	for d := range series {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%(17+d)) + float64(i%(257+64*d))/10
		}
		series[d] = x
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := spectrum.NewPlan(n, spectrum.ClassifyTapers)
		if err != nil {
			b.Fatal(err)
		}
		for _, x := range series {
			if _, err := plan.Classify(x, spectrum.DefaultIntervalSamples, spectrum.DefaultFastShareThreshold); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// diskBytesPerEntry returns the mean size of the published cache
// entries in dir: the bytes a warm-disk cell reads and checksums. It is
// a deterministic work count (an entry's bytes are a function of its
// result), so benchjson gates it like allocs/op.
func diskBytesPerEntry(b *testing.B, dir string) float64 {
	b.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(paths) == 0 {
		b.Fatalf("no cache entries in %s: %v", dir, err)
	}
	var total int64
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			b.Fatal(err)
		}
		total += info.Size()
	}
	return float64(total) / float64(len(paths))
}

// ---------------------------------------------------------------------
// Micro-benchmarks for the hot components.
// ---------------------------------------------------------------------

// BenchmarkSimulatorThroughput measures simulated instructions per
// second of one MCD core replaying a recorded stream, the way the
// mcdbench core workload runs its cells: gzip with no DVFS controller
// (INT-bound, few uops waiting on an unissued producer) and swim under
// the adaptive controllers (FP-heavy and memory-bound, the most such
// uops). Beside sim-insts/s it reports the event engine's exact work
// per simulated instruction, summed over the clock domains:
// slow-edges/inst, edges that ran their cycle work, and
// skipped-edges/inst, edges a descheduled domain consumed with only an
// idle charge.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const insts = 100000
	for _, c := range []struct {
		bench  string
		scheme experiment.Scheme
	}{
		{"gzip", experiment.SchemeNone},
		{"swim", experiment.SchemeAdaptive},
	} {
		b.Run(c.bench+"/"+string(c.scheme), func(b *testing.B) {
			prof, err := trace.ByName(c.bench)
			if err != nil {
				b.Fatal(err)
			}
			rec, err := trace.RecordProfile(prof, trace.StreamSeed(1), insts)
			if err != nil {
				b.Fatal(err)
			}
			opt := benchOpt(insts)
			cfg := mcd.DefaultConfig()
			cfg.Seed = opt.Seed
			var slow, skipped uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := mcd.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := experiment.AttachScheme(p, c.scheme, opt); err != nil {
					b.Fatal(err)
				}
				res, err := p.Run(rec.Replay())
				if err != nil {
					b.Fatal(err)
				}
				if res.Metrics.Instructions != insts {
					b.Fatal("short run")
				}
				slow, skipped = 0, 0
				for _, st := range p.EngineStats() {
					slow += st.SlowEdges
					skipped += st.SkippedEdges
				}
			}
			b.ReportMetric(float64(insts*int64(b.N))/b.Elapsed().Seconds(), "sim-insts/s")
			b.ReportMetric(float64(slow)/insts, "slow-edges/inst")
			b.ReportMetric(float64(skipped)/insts, "skipped-edges/inst")
		})
	}
}

// BenchmarkChip measures whole-chip simulation throughput across the
// cores × governor grid, with per-domain adaptive control on every core
// and the capping governors holding a 7.5 W/core budget. The custom
// metric is chip-level simulated instructions per second — the figure
// the epoch-barrier worker pool exists to scale. The last row runs the
// 4-core integral-gain chip again on one CPU (GOMAXPROCS 1, so a pool
// of one worker): its sim-insts/s against the pooled row's is the
// pool's speedup.
func BenchmarkChip(b *testing.B) {
	const instsPerCore = 30000
	run := func(b *testing.B, cores int, gov string) {
		opt := benchOpt(instsPerCore)
		opt.Cores = cores
		opt.Governor = gov
		if gov != "none" {
			opt.PowerCapW = 7.5 * float64(cores)
		}
		next := uncached(b, opt)
		var total int64
		for i := 0; i < b.N; i++ {
			res, err := experiment.RunChipContext(context.Background(), nil, experiment.SchemeAdaptive, next())
			if err != nil {
				b.Fatal(err)
			}
			total += res.Metrics.Instructions
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-insts/s")
	}
	for _, cores := range []int{1, 4} {
		for _, gov := range []string{"none", "static-split", "integral-gain"} {
			b.Run(fmt.Sprintf("cores=%d/gov=%s", cores, gov), func(b *testing.B) { run(b, cores, gov) })
		}
	}
	b.Run("cores=4/gov=integral-gain/workers=1", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run(b, 4, "integral-gain")
	})
}

// BenchmarkAdaptiveObserve measures one controller sampling tick.
func BenchmarkAdaptiveObserve(b *testing.B) {
	c := control.NewAdaptive(control.DefaultConfig(DomainInt))
	now := clock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 4 * clock.Nanosecond
		c.Observe(now, i%20, 700)
	}
}

// BenchmarkTraceGeneration measures synthetic instruction generation.
func BenchmarkTraceGeneration(b *testing.B) {
	prof, err := trace.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(prof, 1, int64(b.N)+1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("generator ran dry")
		}
	}
}

// BenchmarkChunkedReplay measures streamed replay from the chunked
// on-disk trace format through a two-chunk window: the steady-state
// cost of replaying a trace file (tracegen -stats, -replay). One op is a
// full pass over an 8-chunk file through a fresh cursor; ns/inst is the
// per-instruction cost, chunk loads included, and loads/pass the chunk
// decodes a pass makes (Chunked.Loads), a work count: a sequential pass
// through a window smaller than the file loads each chunk once.
// allocs/op is gated too — per-instruction decode must stay
// allocation-free, with only the per-chunk loads allocating.
func BenchmarkChunkedReplay(b *testing.B) {
	prof, err := trace.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	const insts, chunkInsts = 1 << 15, 4096
	gen, err := trace.NewGenerator(prof, 1, insts)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.WriteChunked(&buf, gen, insts, chunkInsts); err != nil {
		b.Fatal(err)
	}
	c, err := trace.OpenChunked(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 2)
	if err != nil {
		b.Fatal(err)
	}
	if c.Chunks() != insts/chunkInsts {
		b.Fatalf("%d chunks, want %d", c.Chunks(), insts/chunkInsts)
	}
	loads := c.Loads()
	b.ReportAllocs()
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		cur := c.Replay()
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
			n++
		}
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n != int64(b.N)*insts {
		b.Fatalf("replayed %d instructions, want %d", n, int64(b.N)*insts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/inst")
	b.ReportMetric(float64(c.Loads()-loads)/float64(b.N), "loads/pass")
}

// BenchmarkRecordTrace measures the instruction encoder: one op
// records a 100k-instruction gzip stream, held in memory as
// instructions so that generating it is off the clock, into a
// Recorded. ns/inst is the encode cost of one instruction.
func BenchmarkRecordTrace(b *testing.B) {
	prof, err := trace.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	const insts = 100_000
	gen, err := trace.NewGenerator(prof, trace.StreamSeed(1), insts)
	if err != nil {
		b.Fatal(err)
	}
	src := &instSlice{name: prof.Name}
	for {
		in, ok := gen.Next()
		if !ok {
			break
		}
		src.insts = append(src.insts, in)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.next = 0
		if rec := trace.Record(src, insts); rec.Len() != insts {
			b.Fatalf("recorded %d instructions, want %d", rec.Len(), insts)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insts), "ns/inst")
}

// instSlice is a trace.Source over instructions held in memory.
type instSlice struct {
	name  string
	insts []isa.Inst
	next  int
}

func (s *instSlice) Name() string { return s.name }

func (s *instSlice) Next() (isa.Inst, bool) {
	if s.next == len(s.insts) {
		return isa.Inst{}, false
	}
	s.next++
	return s.insts[s.next-1], true
}

// BenchmarkRecordedReplay measures the replay memo's instruction feed:
// one op replays a recorded 100k-instruction gzip stream end to end
// through a fresh Replayer. ns/inst is the decode cost of one
// instruction; trace-B/inst is the recording's resident size per
// instruction (Bytes/Len), a work count that repeats exactly, so the
// baseline gates the codec's density tightly.
func BenchmarkRecordedReplay(b *testing.B) {
	prof, err := trace.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	const insts = 100_000
	rec, err := trace.RecordProfile(prof, trace.StreamSeed(1), insts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		cur := rec.Replay()
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
			n++
		}
	}
	if n != int64(b.N)*insts {
		b.Fatalf("replayed %d instructions, want %d", n, int64(b.N)*insts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/inst")
	b.ReportMetric(float64(rec.Bytes())/float64(rec.Len()), "trace-B/inst")
}

// BenchmarkMultitaperSpectrum measures the Figure-8 estimator on a
// 64K-sample series.
func BenchmarkMultitaperSpectrum(b *testing.B) {
	x := make([]float64, 1<<16)
	for i := range x {
		x[i] = float64(i%17) + float64(i%257)/10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectrum.Multitaper(x, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalCoupling regenerates the per-domain vs globally
// coupled scaling comparison (extension E1).
func BenchmarkGlobalCoupling(b *testing.B) {
	next := uncached(b, benchOpt(50000, "gzip", "swim"))
	for i := 0; i < b.N; i++ {
		if _, err := experiment.GlobalComparison(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQRefSweep regenerates the reference-occupancy sensitivity
// sweep (extension E2).
func BenchmarkQRefSweep(b *testing.B) {
	next := uncached(b, benchOpt(50000, "gsm_decode"))
	for i := 0; i < b.N; i++ {
		if _, err := experiment.QRefSweep(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterfaceStudy regenerates the synchronization-interface
// comparison (extension E3).
func BenchmarkInterfaceStudy(b *testing.B) {
	next := uncached(b, benchOpt(40000, "gsm_decode"))
	for i := 0; i < b.N; i++ {
		if _, err := experiment.InterfaceStudy(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionStudy regenerates the 4- vs 5-domain partition
// comparison (extension E4).
func BenchmarkPartitionStudy(b *testing.B) {
	next := uncached(b, benchOpt(40000, "gzip"))
	for i := 0; i < b.N; i++ {
		if _, err := experiment.PartitionStudy(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelaySweep regenerates the time-delay sweep (extension E5).
func BenchmarkDelaySweep(b *testing.B) {
	next := uncached(b, benchOpt(30000, "gsm_decode"))
	for i := 0; i < b.N; i++ {
		if _, err := experiment.DelaySweep(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
}

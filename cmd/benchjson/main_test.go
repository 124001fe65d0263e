package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkSimulatorThroughput-8   5   87828868 ns/op   1138580 sim-insts/s   3865738 B/op   201 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.Name != "BenchmarkSimulatorThroughput-8" || b.Iterations != 5 {
		t.Errorf("parsed %q/%d", b.Name, b.Iterations)
	}
	if b.NsPerOp != 87828868 {
		t.Errorf("ns/op = %v", b.NsPerOp)
	}
	if b.Metrics["sim-insts/s"] != 1138580 || b.Metrics["allocs/op"] != 201 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	if _, ok := parseLine("Benchmark   garbage"); ok {
		t.Error("garbage line parsed")
	}
}

// TestAddBestMergesRepeats asserts -count=N repeats collapse to the
// fastest run, the statistic the comparison gate is defined over.
func TestAddBestMergesRepeats(t *testing.T) {
	var base Baseline
	addBest(&base, Benchmark{Name: "BenchmarkX", NsPerOp: 100, Metrics: map[string]float64{"sim-insts/s": 10}})
	addBest(&base, Benchmark{Name: "BenchmarkX", NsPerOp: 80, Metrics: map[string]float64{"sim-insts/s": 12}})
	addBest(&base, Benchmark{Name: "BenchmarkX", NsPerOp: 120, Metrics: map[string]float64{"sim-insts/s": 8}})
	addBest(&base, Benchmark{Name: "BenchmarkY", NsPerOp: 7})
	if len(base.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(base.Benchmarks))
	}
	if got := base.Benchmarks[0]; got.NsPerOp != 80 || got.Metrics["sim-insts/s"] != 12 {
		t.Errorf("best-of merge kept %+v", got)
	}
}

// TestAddBestTakesMinimumWorkCounts asserts each work count merges as
// its minimum over the repeats, independently of the fastest line: the
// first repeat carries one-time allocations, and the fastest line may
// be a repeat before the counts settle.
func TestAddBestTakesMinimumWorkCounts(t *testing.T) {
	var base Baseline
	rep := func(ns, bytes, allocs float64) Benchmark {
		return Benchmark{Name: "BenchmarkX", NsPerOp: ns,
			Metrics: map[string]float64{"sim-insts/s": 1e9 / ns, "B/op": bytes, "allocs/op": allocs}}
	}
	addBest(&base, rep(90, 6.6e6, 230)) // first repeat: fastest, one-time allocations
	addBest(&base, rep(100, 4.1e6, 226))
	addBest(&base, rep(95, 4.2e6, 224))
	got := base.Benchmarks[0]
	if got.NsPerOp != 90 || got.Metrics["sim-insts/s"] != 1e9/90 {
		t.Errorf("wall figures not from the fastest line: %+v", got)
	}
	if got.Metrics["B/op"] != 4.1e6 || got.Metrics["allocs/op"] != 224 {
		t.Errorf("work counts not the per-unit minimum: %+v", got.Metrics)
	}

	// A work count only some repeats report is kept from those.
	base = Baseline{}
	addBest(&base, Benchmark{Name: "BenchmarkY", NsPerOp: 50, Metrics: map[string]float64{"disk-B/cell": 700}})
	addBest(&base, Benchmark{Name: "BenchmarkY", NsPerOp: 40})
	if got := base.Benchmarks[0]; got.NsPerOp != 40 || got.Metrics["disk-B/cell"] != 700 {
		t.Errorf("partial work count lost: %+v", got)
	}
}

// writeBaseline marshals benches to a temp baseline file.
func writeBaseline(t *testing.T, dir, name string, benches ...Benchmark) string {
	t.Helper()
	path := filepath.Join(dir, name)
	blob, err := json.Marshal(Baseline{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGatesOnThroughput exercises the exit codes of the
// comparison CI gates on: throughput benchmarks judged on sim-insts/s,
// others on ns/op, speedups never failing.
func TestCompareGatesOnThroughput(t *testing.T) {
	dir := t.TempDir()
	thr := func(ns, insts float64) Benchmark {
		return Benchmark{Name: "BenchmarkThroughput", NsPerOp: ns, Metrics: map[string]float64{"sim-insts/s": insts}}
	}
	plain := func(ns float64) Benchmark {
		return Benchmark{Name: "BenchmarkPlain", NsPerOp: ns}
	}
	old := writeBaseline(t, dir, "old.json", thr(100, 1000), plain(100))

	cases := []struct {
		name string
		new  []Benchmark
		want int
	}{
		{"unchanged", []Benchmark{thr(100, 1000), plain(100)}, 0},
		{"within tolerance", []Benchmark{thr(108, 930), plain(109)}, 0},
		{"throughput drop fails", []Benchmark{thr(130, 850), plain(100)}, 1},
		// ns/op got worse but the gated metric did not: engine work per
		// op can legitimately grow while sim-insts/s holds.
		{"throughput holds despite ns/op", []Benchmark{thr(150, 995), plain(100)}, 0},
		{"plain ns/op regression fails", []Benchmark{thr(100, 1000), plain(120)}, 1},
		{"speedup passes", []Benchmark{thr(50, 2000), plain(10)}, 0},
		{"one-sided benchmarks never fail", []Benchmark{{Name: "BenchmarkNew", NsPerOp: 5}, thr(100, 1000)}, 0},
	}
	for _, tc := range cases {
		newPath := writeBaseline(t, dir, "new.json", tc.new...)
		if got := compareBaselines(old, newPath, 10, 10); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCompareGatesOnAllocs exercises the second, tighter gate:
// allocs/op is deterministic between runs, so it fails at its own
// tolerance even when wall clock is within the coarse one.
func TestCompareGatesOnAllocs(t *testing.T) {
	dir := t.TempDir()
	bench := func(ns, allocs float64) Benchmark {
		return Benchmark{Name: "BenchmarkAlloc", NsPerOp: ns, Metrics: map[string]float64{"allocs/op": allocs}}
	}
	old := writeBaseline(t, dir, "old.json", bench(100, 200))

	cases := []struct {
		name string
		new  Benchmark
		want int
	}{
		{"allocs unchanged", bench(100, 200), 0},
		{"allocs within tolerance", bench(100, 218), 0},
		{"allocs regress past tolerance", bench(100, 230), 1},
		{"allocs regress despite faster wall clock", bench(60, 300), 1},
		{"allocs drop passes", bench(100, 120), 0},
		{"no alloc metric falls back to wall gate", Benchmark{Name: "BenchmarkAlloc", NsPerOp: 110}, 0},
	}
	for _, tc := range cases {
		newPath := writeBaseline(t, dir, "new.json", tc.new)
		if got := compareBaselines(old, newPath, 40, 10); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

// disk-B/cell, the warm-disk matrix's mean cache-entry size,
// entry-B/op, the entry bytes a disk-hit op reads, trace-B/inst, a
// recorded trace's resident bytes per instruction, and slow-edges/inst
// and skipped-edges/inst, the simulator's clock edges per instruction, are
// work counts that repeat exactly, so they share the allocs/op gate.
func TestCompareGatesOnDiskBytes(t *testing.T) {
	for _, unit := range []string{"disk-B/cell", "entry-B/op", "trace-B/inst", "slow-edges/inst", "skipped-edges/inst"} {
		compareGatesOnDiskBytes(t, unit)
	}
}

func compareGatesOnDiskBytes(t *testing.T, unit string) {
	dir := t.TempDir()
	bench := func(ns, diskB float64) Benchmark {
		return Benchmark{Name: "BenchmarkRunMatrix/warm-disk", NsPerOp: ns,
			Metrics: map[string]float64{"allocs/op": 7000, unit: diskB}}
	}
	old := writeBaseline(t, dir, "old.json", bench(100, 74000))

	cases := []struct {
		name string
		new  Benchmark
		want int
	}{
		{"entry size unchanged", bench(100, 74000), 0},
		{"entry size within tolerance", bench(100, 80000), 0},
		{"entry size grows past tolerance", bench(100, 150000), 1},
		{"entry size grows despite faster wall clock", bench(50, 150000), 1},
		{"entry size shrinks", bench(100, 37000), 0},
	}
	for _, tc := range cases {
		newPath := writeBaseline(t, dir, "new.json", tc.new)
		if got := compareBaselines(old, newPath, 40, 10); got != tc.want {
			t.Errorf("%s: %s: exit %d, want %d", unit, tc.name, got, tc.want)
		}
	}
}

// B/op, the bytes allocated per iteration, is a work count too: a
// result holding more memory fails it even when allocs/op and wall
// time do not move.
func TestCompareGatesOnBytes(t *testing.T) {
	dir := t.TempDir()
	bench := func(ns, bytes float64) Benchmark {
		return Benchmark{Name: "BenchmarkSimulatorThroughput", NsPerOp: ns,
			Metrics: map[string]float64{"allocs/op": 224, "B/op": bytes, "sim-insts/s": 1e6}}
	}
	old := writeBaseline(t, dir, "old.json", bench(100, 1.06e6))

	cases := []struct {
		name string
		new  Benchmark
		want int
	}{
		{"bytes unchanged", bench(100, 1.06e6), 0},
		{"bytes within tolerance", bench(100, 1.15e6), 0},
		{"bytes regress past tolerance", bench(100, 4.1e6), 1},
		{"bytes regress despite faster wall clock", bench(50, 4.1e6), 1},
		{"bytes drop passes", bench(100, 0.5e6), 0},
	}
	for _, tc := range cases {
		newPath := writeBaseline(t, dir, "new.json", tc.new)
		if got := compareBaselines(old, newPath, 40, 10); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

// A baseline recorded at GOMAXPROCS=1 (bare names) must gate a run at
// GOMAXPROCS=2 ("-2" names), and vice versa.
func TestCompareIgnoresProcSuffix(t *testing.T) {
	dir := t.TempDir()
	bench := func(name string, allocs float64) Benchmark {
		return Benchmark{Name: name, NsPerOp: 100, Metrics: map[string]float64{"allocs/op": allocs}}
	}
	old := writeBaseline(t, dir, "old.json", bench("BenchmarkChip/cores=4/gov=none", 200))
	if got := compareBaselines(old, writeBaseline(t, dir, "ok.json", bench("BenchmarkChip/cores=4/gov=none-2", 200)), 40, 10); got != 0 {
		t.Errorf("same benchmark at another GOMAXPROCS: exit %d, want 0", got)
	}
	if got := compareBaselines(old, writeBaseline(t, dir, "bad.json", bench("BenchmarkChip/cores=4/gov=none-2", 300)), 40, 10); got != 1 {
		t.Errorf("alloc regression across GOMAXPROCS suffixes: exit %d, want 1", got)
	}
	if got, want := procless("BenchmarkRunMatrix/warm-disk-16"), "BenchmarkRunMatrix/warm-disk"; got != want {
		t.Errorf("procless = %q, want %q", got, want)
	}
}

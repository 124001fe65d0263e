// Command benchjson converts `go test -bench` output into a small JSON
// document, so benchmark baselines can be recorded in the repository
// (BENCH_baseline.json) and compared across commits.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkSimulatorThroughput -benchmem . | go run ./cmd/benchjson
//	go test -bench . ./... | go run ./cmd/benchjson -out BENCH_baseline.json
//
// Repeated runs of the same benchmark (from -count=N) are merged
// best-of-N — the fastest ns/op line wins — because the minimum of a
// few runs is far more stable on shared machines than any single run.
// Each work count (see below) is merged as its own minimum over the
// repeats: the first repeat in a process also pays one-time
// allocations, so the fastest line need not carry the steady count.
//
// With -compare it instead diffs two such documents and exits 1 when
// any benchmark present in both regressed beyond tolerance. Two gates
// run per benchmark:
//
//   - wall clock, at -tolerance percent: benchmarks reporting a
//     throughput metric (sim-insts/s or cells/s) are gated on that figure (a drop
//     beyond tolerance fails; a gain beyond it is flagged as a stale
//     baseline worth refreshing); all others are gated on ns/op. This
//     gate is deliberately coarse — wall time on shared machines
//     drifts ±20-30% between invocations, so it only trips on
//     catastrophic slowdowns.
//   - work counts, at -alloc-tolerance percent: allocs/op, B/op, the
//     warm-disk matrix's disk-B/cell (mean cache-entry size), the
//     disk-hit benchmarks' entry-B/op (entry bytes read), a recorded
//     trace's trace-B/inst, a chunked replay's loads/pass and the
//     simulator's slow-edges/inst and skipped-edges/inst repeat run to
//     run, so this gate can be tight. It is the one
//     that catches per-iteration garbage creeping back into the hot
//     path, a result quietly holding more memory, or a cache entry
//     quietly growing.
//
// Speedups and allocation drops never fail:
//
//	go run ./cmd/benchjson -compare -tolerance 40 -alloc-tolerance 10 BENCH_baseline.json bench_new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name string `json:"name"`
	// Iterations is the b.N the line reports.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the ns/op column.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every remaining "value unit" pair on the line
	// (custom ReportMetric units like sim-insts/s, plus B/op and
	// allocs/op when -benchmem is on).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the document benchjson emits.
type Baseline struct {
	// Context lines (goos/goarch/pkg/cpu) from the bench output.
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	compare := flag.Bool("compare", false, "compare two baseline JSON files (old new) instead of parsing stdin")
	tolerance := flag.Float64("tolerance", 25, "with -compare, max allowed wall-clock (ns/op or sim-insts/s) regression in percent")
	allocTolerance := flag.Float64("alloc-tolerance", 10, "with -compare, max allowed regression in percent of allocs/op, B/op, disk-B/cell, entry-B/op, trace-B/inst, loads/pass, slow-edges/inst and skipped-edges/inst")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareBaselines(flag.Arg(0), flag.Arg(1), *tolerance, *allocTolerance))
	}

	base := Baseline{Context: map[string]string{}}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+":"); ok {
				base.Context[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: skipping unparseable line: %s\n", line)
			continue
		}
		addBest(&base, b)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(base.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	blob, err := json.MarshalIndent(&base, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob) //nolint:errcheck // stdout
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// addBest records b in the baseline, merging -count=N repeats of the
// same benchmark best-of-N: the fastest ns/op line wins, because the
// minimum over a few runs is far more stable against scheduler and
// frequency noise than any individual run. Each work count is then
// the minimum over every repeat, whichever line was fastest: the
// first repeat carries the process's one-time allocations.
func addBest(base *Baseline, b Benchmark) {
	for i := range base.Benchmarks {
		best := &base.Benchmarks[i]
		if best.Name != b.Name {
			continue
		}
		other := b.Metrics
		if b.NsPerOp < best.NsPerOp {
			other = best.Metrics
			*best = b
		}
		for _, unit := range workUnits {
			v, ok := other[unit]
			if !ok {
				continue
			}
			if cur, has := best.Metrics[unit]; !has || v < cur {
				if best.Metrics == nil {
					best.Metrics = map[string]float64{}
				}
				best.Metrics[unit] = v
			}
		}
		return
	}
	base.Benchmarks = append(base.Benchmarks, b)
}

// throughputUnits are the custom metrics the benchmarks report; when
// both sides of a comparison carry one (first match wins), the gate
// runs on it directly — it is the figure the performance roadmap
// tracks — instead of on ns/op. sim-insts/s is the simulator core's
// figure, cells/s the matrix harness's.
var throughputUnits = []string{"sim-insts/s", "cells/s"}

// workUnits are the deterministic work counts: -benchmem's allocation
// count and bytes, the cache-entry bytes per warm-disk cell, the entry
// bytes a disk-hit op reads, a recorded trace's resident bytes per
// instruction, the chunk loads of one chunked-replay pass, and the
// event engine's slow and skipped clock edges per simulated
// instruction.
// Unlike wall time they repeat between runs (past a process's first
// repeat, which addBest's minimum drops), so they share their own,
// much tighter gate.
var workUnits = []string{"allocs/op", "B/op", "disk-B/cell", "entry-B/op", "trace-B/inst", "loads/pass", "slow-edges/inst", "skipped-edges/inst"}

// compareBaselines diffs old vs new by benchmark name and returns the
// process exit code: 0 when every shared benchmark's regression is
// within tolerance, 1 past it, 2 on unusable input. Two gates run per
// benchmark: wall clock at tolerance percent (sim-insts/s when both
// sides report it, ns/op otherwise) and each work count in workUnits
// at allocTolerance percent. Benchmarks present on only one side are
// reported but never fail the comparison — adding or retiring a
// benchmark is not a regression. Remaining metric deltas (ns/render,
// ...) are informational.
func compareBaselines(oldPath, newPath string, tolerance, allocTolerance float64) int {
	load := func(path string) (map[string]Benchmark, []string, bool) {
		blob, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return nil, nil, false
		}
		var b Baseline
		if err := json.Unmarshal(blob, &b); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
			return nil, nil, false
		}
		m := make(map[string]Benchmark, len(b.Benchmarks))
		var names []string
		for _, bench := range b.Benchmarks {
			name := procless(bench.Name)
			if _, dup := m[name]; !dup {
				names = append(names, name)
			}
			m[name] = bench
		}
		return m, names, true
	}
	oldB, _, ok := load(oldPath)
	if !ok {
		return 2
	}
	newB, newNames, ok := load(newPath)
	if !ok {
		return 2
	}

	failed := false
	compared := 0
	for _, name := range newNames {
		nb := newB[name]
		ob, shared := oldB[name]
		if !shared {
			fmt.Printf("%-50s new benchmark (%.0f ns/op), not compared\n", name, nb.NsPerOp)
			continue
		}
		compared++
		delta := 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		verdict := "ok"
		throughputUnit := ""
		for _, unit := range throughputUnits {
			if ob.Metrics[unit] > 0 && nb.Metrics[unit] > 0 {
				throughputUnit = unit
				break
			}
		}
		if throughputUnit != "" {
			// Throughput benchmark: gate on the metric itself.
			oThr, nThr := ob.Metrics[throughputUnit], nb.Metrics[throughputUnit]
			tDelta := 100 * (nThr - oThr) / oThr
			switch {
			case tDelta < -tolerance:
				verdict = fmt.Sprintf("FAIL (%s %+.1f%%, tolerance ±%.0f%%)", throughputUnit, tDelta, tolerance)
				failed = true
			case tDelta > tolerance:
				verdict = fmt.Sprintf("ok (%s %+.1f%% — baseline looks stale, refresh it)", throughputUnit, tDelta)
			}
		} else if delta > tolerance {
			verdict = fmt.Sprintf("FAIL (> %+.0f%%)", tolerance)
			failed = true
		}
		for _, unit := range workUnits {
			if oa, na := ob.Metrics[unit], nb.Metrics[unit]; oa > 0 && na > 0 {
				if aDelta := 100 * (na - oa) / oa; aDelta > allocTolerance {
					verdict = fmt.Sprintf("FAIL (%s %+.1f%%, tolerance ±%.0f%%)", unit, aDelta, allocTolerance)
					failed = true
				}
			}
		}
		fmt.Printf("%-50s %12.0f -> %12.0f ns/op  %+7.1f%%  %s\n",
			name, ob.NsPerOp, nb.NsPerOp, delta, verdict)
		var units []string
		for unit := range nb.Metrics {
			if _, ok := ob.Metrics[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			ov, nv := ob.Metrics[unit], nb.Metrics[unit]
			if ov == 0 {
				continue
			}
			fmt.Printf("  %-48s %12.4g -> %12.4g %s  %+7.1f%%\n",
				"", ov, nv, unit, 100*(nv-ov)/ov)
		}
	}
	for name := range oldB {
		if _, ok := newB[name]; !ok {
			fmt.Printf("%-50s missing from %s\n", name, newPath)
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark appears in both files")
		return 2
	}
	if failed {
		fmt.Printf("\nFAIL: at least one benchmark regressed beyond tolerance (wall ±%.0f%%, work counts ±%.0f%%)\n", tolerance, allocTolerance)
		return 1
	}
	fmt.Printf("\nok: %d benchmarks within tolerance of %s (wall ±%.0f%%, work counts ±%.0f%%)\n", compared, oldPath, tolerance, allocTolerance)
	return 0
}

// procless drops the -GOMAXPROCS suffix go test appends to a
// benchmark name when GOMAXPROCS is above 1 ("BenchmarkX/y-4" ->
// "BenchmarkX/y"), so baselines recorded on hosts with different CPU
// counts still compare by name. The tracked benchmark names never end
// in -digits themselves.
func procless(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseLine parses one "BenchmarkName-8  5  87828868 ns/op  1138580
// sim-insts/s  ..." line: a name, an iteration count, then alternating
// value/unit pairs.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		if f[i+1] == "ns/op" {
			b.NsPerOp = v
		} else {
			b.Metrics[f[i+1]] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}

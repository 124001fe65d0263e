// Command mcdbench is the repository benchmark. It drives one of three
// workloads — core (single-core and chip simulation), sweep (the
// cmd/experiments matrix path, cold and warm from disk) and serve
// (mcdserve in-process under a closed loop) — for a fixed wall-clock
// window, checks every output it produces, and prints one JSON result
// line. With -trace 1 it runs the traced ledger instead: a fixed amount
// of work from all three workloads, timed around the public seams of
// every layer, reported as per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash mcdbench/run.sh --workload core --seed 1 --seconds 20 --trace 0
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runs with.
type env struct {
	seed   int64
	window time.Duration
	// start is when the run began; setup_s is the time from start to
	// the first timed op.
	start time.Time
	// work is a scratch directory inside the checkout, removed at exit.
	work  string
	tally *tally
}

func main() {
	workload := flag.String("workload", "", "workload to run: core, sweep or serve")
	seed := flag.Int64("seed", 1, "workload seed: picks every trace seed and request spec")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	traced := flag.Int("trace", 0, "0 = untraced end-to-end metrics, 1 = traced per-layer ledger")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced int) error {
	start := time.Now()
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{
		seed:   seed,
		window: time.Duration(seconds * float64(time.Second)),
		start:  start,
		work:   work,
		tally:  &tally{},
	}
	ctx := context.Background()
	var metrics map[string]metric
	switch {
	case workload != "core" && workload != "sweep" && workload != "serve":
		return fmt.Errorf("unknown -workload %q (core, sweep, serve)", workload)
	case traced == 1:
		metrics, err = runLedger(ctx, e, workload)
	case workload == "core":
		metrics, err = runCore(e)
	case workload == "sweep":
		metrics, err = runSweep(ctx, e)
	default:
		metrics, err = runServe(ctx, e)
	}
	if err != nil {
		return err
	}
	if traced == 0 {
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		metrics["ok_share"] = metric{e.tally.okShare(), "share"}
	}
	return emit(e.tally, metrics)
}

// buildDir holds everything the benchmark writes, relative to the
// checkout root it runs from.
var buildDir = filepath.Join(".bench_build", "mcdbench")

// emit prints the metric table to stdout for people, then the JSON
// result as the last line.
func emit(t *tally, metrics map[string]metric) error {
	names := make([]string, 0, len(metrics))
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-34s %16.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	attempted, failed := t.counts()
	blob, err := json.Marshal(report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

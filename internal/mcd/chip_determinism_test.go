package mcd_test

// The worker-pool determinism suite lives in the external test package
// so it can attach the real integral-gain governor from
// internal/governor (which imports mcd; an in-package test would be an
// import cycle).

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"time"

	"mcddvfs/internal/control"
	"mcddvfs/internal/governor"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// chipRunBytes runs the canonical determinism workload on a worker
// pool of the given size and returns the serialized ChipResult.
func chipRunBytes(t *testing.T, workers int) []byte {
	t.Helper()
	blob, err := json.Marshal(governedChipRun(t, workers))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// governedChipRun runs the canonical determinism workload — a 4-core
// chip with heterogeneous per-core benchmarks, adaptive per-domain
// controllers, and the integral-gain governor holding a 30 W budget —
// on a worker pool of the given size. The per-core budgets stagger the
// cores' finishes so that the live set shrinks 4 → 3 → 1: one core
// finishes first, two more in one later epoch.
func governedChipRun(t *testing.T, workers int) *mcd.ChipResult {
	t.Helper()
	benches := []string{"epic_decode", "gzip", "swim", "adpcm_encode"}
	budgets := []int64{30000, 30000, 25000, 30000}
	cfg := mcd.ChipConfig{Cores: make([]mcd.Config, len(benches)), PowerCapW: 30}
	for i := range cfg.Cores {
		mc := mcd.DefaultConfig()
		mc.Seed += int64(i)
		cfg.Cores[i] = mc
	}
	chip, err := mcd.NewChip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < chip.Cores(); i++ {
		for d := 0; d < isa.NumExecDomains; d++ {
			dom := isa.ExecDomain(d)
			chip.Core(i).Attach(dom, control.NewAdaptive(control.DefaultConfig(dom)))
		}
	}
	desc, ok := governor.Lookup("integral-gain")
	if !ok {
		t.Fatal("integral-gain governor not registered")
	}
	gov, err := desc.New(governor.Options{
		Cores:   len(benches),
		BudgetW: cfg.PowerCapW,
		Range:   cfg.Cores[0].Range,
	})
	if err != nil {
		t.Fatal(err)
	}
	chip.SetGovernor(gov)
	chip.SetWorkers(workers)

	srcs := make([]trace.Source, len(benches))
	for i, name := range benches {
		prof, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewGenerator(prof, cfg.Cores[i].Seed+100, budgets[i])
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = gen
	}
	res, err := chip.Run(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochTrace) == 0 {
		t.Fatal("governed chip run recorded no control epochs")
	}
	return res
}

// timedChipRun measures the wall-clock of one governorless 4-core chip
// run at the given pool size — governorless so there are no epoch
// barriers and the measurement isolates the pool itself.
func timedChipRun(t *testing.T, workers int, insts int64) time.Duration {
	t.Helper()
	benches := []string{"epic_decode", "gzip", "swim", "adpcm_encode"}
	cfg := mcd.ChipConfig{Cores: make([]mcd.Config, len(benches))}
	for i := range cfg.Cores {
		mc := mcd.DefaultConfig()
		mc.Seed += int64(i)
		cfg.Cores[i] = mc
	}
	chip, err := mcd.NewChip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip.SetWorkers(workers)
	srcs := make([]trace.Source, len(benches))
	for i, name := range benches {
		prof, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewGenerator(prof, cfg.Cores[i].Seed+100, insts)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = gen
	}
	start := time.Now()
	if _, err := chip.Run(srcs); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestChipParallelSpeedup is the throughput half of the worker-pool
// contract: on a machine with CPUs to spare, a 4-core chip on the full
// pool must finish at least 2x faster than the same chip advanced
// serially. Cores exchange no data between barriers, but they do
// share the host's caches: a core writing a cache line that holds
// another core's state stalls both. The per-core layout rule of
// internal/layout keeps that from happening, and
// TestChipCoresShareNoCacheLine, not this test, is what checks it: this
// one skips where the hardware cannot show the effect (GOMAXPROCS < 4
// — a worker per core is the configuration the bound is stated for)
// and under -race, whose instrumentation serializes the cores' memory
// traffic and makes wall-clock ratios meaningless.
func TestChipParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement is slow")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts wall-clock ratios")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need 4 CPUs to demonstrate 4-core speedup; have %d", runtime.GOMAXPROCS(0))
	}
	const insts = 400000
	timedChipRun(t, 1, 50000) // warm caches and the scheduler
	serial := timedChipRun(t, 1, insts)
	parallel := timedChipRun(t, 4, insts)
	speedup := serial.Seconds() / parallel.Seconds()
	t.Logf("serial=%v parallel=%v speedup=%.2fx", serial, parallel, speedup)
	if speedup < 2 {
		t.Errorf("4-core chip sped up only %.2fx over serial; the pool should buy at least 2x with 4 CPUs", speedup)
	}
}

// liveCounts returns the distinct live-core counts of a governed chip
// run in epoch order: a core is live after an epoch until its retired
// count reaches its final one.
func liveCounts(res *mcd.ChipResult) []int {
	out := []int{len(res.Cores)}
	for _, s := range res.EpochTrace {
		live := 0
		for i, n := range s.CoreInsts {
			if n < res.Cores[i].Metrics.Instructions {
				live++
			}
		}
		if live != out[len(out)-1] {
			out = append(out, live)
		}
	}
	return out
}

// TestChipResultIndependentOfWorkers is the parallelism determinism
// gate: the worker pool is purely a throughput knob, so the same
// governed heterogeneous chip run must serialize to the same bytes at
// pool sizes 1 to 4 and GOMAXPROCS. Each epoch dispatches its live
// cores longest first, an order that depends on the live count and the
// pool width, so the workload's live set shrinks 4 → 3 → 1 and every
// pool size meets 4, 3 and 1 live cores. Under -race (make race) it
// doubles as the data-race check on the epoch-barrier protocol.
func TestChipResultIndependentOfWorkers(t *testing.T) {
	if got := liveCounts(governedChipRun(t, 1)); !slices.Equal(got, []int{4, 3, 1}) {
		t.Fatalf("live cores per epoch went %v, want [4 3 1]", got)
	}
	want := chipRunBytes(t, 1)
	for _, w := range []int{2, 3, 4, runtime.GOMAXPROCS(0)} {
		if got := chipRunBytes(t, w); !bytes.Equal(got, want) {
			t.Errorf("ChipResult bytes at %d workers differ from the serial run (%d vs %d bytes)",
				w, len(got), len(want))
		}
	}
}

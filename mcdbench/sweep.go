package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mcddvfs/internal/experiment"
)

// sweepBenchmarks span all three suites, two each, and avoid the core
// workload's four so the two workloads share no traces.
var sweepBenchmarks = []string{"gsm_decode", "g721_encode", "mcf", "parser", "art", "mesa"}

// sweepInsts is every sweep cell's instruction budget.
const sweepInsts = 100_000

// sweepState owns the directory the sweep's per-op disk caches live in.
type sweepState struct {
	seed int64
	base string
	ops  int
}

// sweepWarmSteps is how often one op re-reads its matrix from disk.
// A warm step takes tens of milliseconds, so an op takes several.
const sweepWarmSteps = 5

// sweepResult is one sweep op: a cold matrix into a fresh disk cache,
// then the same matrix decoded from disk sweepWarmSteps times.
type sweepResult struct {
	cold  time.Duration
	warm  []time.Duration
	cells int
	// In-process cache traffic over the op (disk hits count as
	// misses), and disk-cache traffic.
	memHits, memMisses   uint64
	diskWrites, diskHits uint64
	diskErrors           uint64
	// diskBytes is the cache directory's size after the cold step.
	diskBytes int64
}

func newSweep(ctx context.Context, seed int64, base string) (*sweepState, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	s := &sweepState{seed: seed, base: base}
	// One op lets the lazy parts of the harness (registries, encoders,
	// heap growth) settle before anything is timed.
	if _, err := s.runOp(ctx, nil, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// runOp runs one sweep op in a fresh cache directory and checks it:
// no failed cell, every cell written to disk by the cold step and read
// back by each warm one, and every warm matrix equal to the cold one
// cell for cell. It starts and ends with an empty in-process result
// cache.
func (s *sweepState) runOp(ctx context.Context, tr *tracer, parent int) (sweepResult, error) {
	var r sweepResult
	s.ops++
	dir := filepath.Join(s.base, fmt.Sprintf("op-%d", s.ops))
	defer os.RemoveAll(dir)
	opt := experiment.Options{Instructions: sweepInsts, Seed: s.seed, Benchmarks: sweepBenchmarks, CacheDir: dir}
	want := len(sweepBenchmarks) * (1 + len(experiment.ControlledSchemes()))

	// step runs the matrix once from an empty in-process cache.
	step := func(name string) (*experiment.Matrix, time.Duration, error) {
		experiment.ResetCache()
		sp := tr.begin("experiment.RunMatrixContext "+name, parent)
		t0 := time.Now()
		m, err := experiment.RunMatrixContext(ctx, opt)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, d, fmt.Errorf("%s matrix: %w", name, err)
		}
		hits, misses := experiment.CacheStats()
		r.memHits += hits
		r.memMisses += misses
		cells := 0
		for _, b := range m.Benchmarks {
			cells += len(m.Results[b])
		}
		if len(m.Failures) > 0 || cells != want {
			return nil, d, fmt.Errorf("%s matrix: %d of %d cells, %d failed", name, cells, want, len(m.Failures))
		}
		return m, d, nil
	}

	d0, err := experiment.DiskCacheStats()
	if err != nil {
		return r, err
	}
	cold, coldTime, err := step("cold")
	if err != nil {
		return r, err
	}
	r.cold, r.cells = coldTime, want
	if r.diskBytes, err = dirBytes(dir); err != nil {
		return r, err
	}
	ref, err := digest(cold.Results)
	if err != nil {
		return r, err
	}
	d1, err := experiment.DiskCacheStats()
	if err != nil {
		return r, err
	}
	for i := 0; i < sweepWarmSteps; i++ {
		warm, warmTime, err := step("warm")
		if err != nil {
			return r, err
		}
		r.warm = append(r.warm, warmTime)
		if d, err := digest(warm.Results); err != nil || d != ref {
			return r, fmt.Errorf("sweep: warm-from-disk matrix differs from the cold matrix (%v)", err)
		}
	}
	experiment.ResetCache()
	d2, err := experiment.DiskCacheStats()
	if err != nil {
		return r, err
	}
	r.diskWrites = d1.Writes - d0.Writes
	r.diskHits = d2.Hits - d1.Hits
	r.diskErrors = d2.ReadErrors + d2.WriteErrors + d2.Corrupt - d0.ReadErrors - d0.WriteErrors - d0.Corrupt
	switch {
	case r.diskWrites != uint64(want) || r.diskHits != uint64(want*sweepWarmSteps):
		return r, fmt.Errorf("sweep: %d disk writes and %d disk hits, want %d and %d", r.diskWrites, r.diskHits, want, want*sweepWarmSteps)
	case r.diskErrors != 0:
		return r, fmt.Errorf("sweep: %d disk-cache errors", r.diskErrors)
	}
	return r, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// runSweep measures sweep ops for the window.
func runSweep(ctx context.Context, e *env) (map[string]metric, error) {
	s, err := newSweep(ctx, e.seed, filepath.Join(e.work, "sweep"))
	if err != nil {
		return nil, err
	}
	setup := time.Since(e.start).Seconds()
	var rates, coldS, warmS []float64
	for deadline, ops := time.Now().Add(e.window), 0; ops == 0 || time.Now().Before(deadline); ops++ {
		runtime.GC() // each op starts from a collected heap
		r, err := s.runOp(ctx, nil, 0)
		e.tally.op(err)
		if err != nil {
			continue
		}
		rates = append(rates, float64(r.cells)*sweepInsts/r.cold.Seconds())
		coldS = append(coldS, r.cold.Seconds())
		for _, d := range r.warm {
			warmS = append(warmS, d.Seconds())
		}
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("every sweep op failed")
	}
	fmt.Println(spread("cold matrix sim insts/s", rates, "1/s"))
	fmt.Println(spread("warm-from-disk matrix", warmS, "s"))
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"sim_insts_per_s": {median(rates), "1/s"},
		"p50_ms":          {1e3 * median(warmS), "ms"},
		"ops_per_s":       {1 / (median(coldS) + sweepWarmSteps*median(warmS)), "1/s"},
	}, nil
}

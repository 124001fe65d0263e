package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/governor"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// The core workload's cell list. The four benchmarks cover the event
// engine's regimes: fast-varying with the highest throughput
// (adpcm_encode), INT-bound (gzip), the Figure 7 benchmark
// (epic_decode), and FP-heavy and memory-bound (swim). The "none"
// cells attach no controller, so they bypass the control layer
// entirely.
var (
	coreBenchmarks = []string{"adpcm_encode", "gzip", "epic_decode", "swim"}
	coreSchemes    = []experiment.Scheme{experiment.SchemeNone, experiment.SchemeAdaptive, experiment.SchemePID, experiment.SchemeAttackDecay}
	// chipGovernors are the capping governors of the two chip cells,
	// each under a binding chipCapPerCoreW budget.
	chipGovernors = []string{"integral-gain", "static-split"}
)

const (
	// coreInsts is every core cell's instruction budget (per core on
	// the chip).
	coreInsts       = 100_000
	chipCapPerCoreW = 7.5
)

// coreState is the core workload's set-up: every trace recorded once,
// and the chip cells' reference results from a one-worker pool.
type coreState struct {
	seed int64
	// single holds one recorded stream per benchmark at the workload
	// seed; chip holds core i's stream (coreBenchmarks[i] at seed+i,
	// the harness's per-core seed offset).
	single map[string]*trace.Recorded
	chip   []*trace.Recorded
	// chipRef is the digest of each chip cell's result at one worker.
	chipRef map[string][sha256.Size]byte
	// genTime is the host time spent recording every stream.
	genTime  time.Duration
	genInsts int64
}

// machine is the harness's single-core machine at seed.
func machine(seed int64) mcd.Config {
	cfg := mcd.DefaultConfig()
	cfg.Seed = seed
	cfg.SampleLimit = 1 << 17
	return cfg
}

// newCore records every stream and computes the chip references.
func newCore(seed int64) (*coreState, error) {
	st := &coreState{
		seed:    seed,
		single:  make(map[string]*trace.Recorded, len(coreBenchmarks)),
		chipRef: make(map[string][sha256.Size]byte, len(chipGovernors)),
	}
	record := func(bench string, streamSeed int64) (*trace.Recorded, error) {
		prof, err := trace.ByName(bench)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rec, err := trace.RecordProfile(prof, streamSeed, coreInsts)
		st.genTime += time.Since(t0)
		st.genInsts += coreInsts
		return rec, err
	}
	for i, bench := range coreBenchmarks {
		rec, err := record(bench, trace.StreamSeed(seed))
		if err != nil {
			return nil, err
		}
		st.single[bench] = rec
		if rec, err = record(bench, trace.StreamSeed(seed+int64(i))); err != nil {
			return nil, err
		}
		st.chip = append(st.chip, rec)
	}
	for _, gov := range chipGovernors {
		cr, err := st.runChip(gov, 1, nil)
		if err != nil {
			return nil, err
		}
		if st.chipRef[gov], err = digest(cr); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// runSingle simulates one single-core cell: mcd.New, the scheme's
// controllers, Processor.Run over the recorded stream. A non-nil pr
// wraps the cell's seams; nil runs the plain, untraced path.
func (st *coreState) runSingle(bench string, sch experiment.Scheme, pr *probe) (*mcd.Result, *mcd.Processor, error) {
	p, err := mcd.New(machine(st.seed))
	if err != nil {
		return nil, nil, err
	}
	if err := pr.attachScheme(p, sch, st.seed); err != nil {
		return nil, nil, err
	}
	res, err := p.Run(pr.wrapSource(st.single[bench].Replay()))
	if err != nil {
		return nil, nil, fmt.Errorf("%s/%s: %w", bench, sch, err)
	}
	if res.Metrics.Instructions != coreInsts {
		return nil, nil, fmt.Errorf("%s/%s retired %d instructions, want %d", bench, sch, res.Metrics.Instructions, coreInsts)
	}
	return res, p, nil
}

// runChip simulates one chip cell: four cores, one benchmark each,
// adaptive control per domain, the named governor under the binding
// budget, on a pool of workers (0 = GOMAXPROCS). pr is as for
// runSingle.
func (st *coreState) runChip(gov string, workers int, pr *probe) (*mcd.ChipResult, error) {
	n := len(st.chip)
	cfg := mcd.ChipConfig{Cores: make([]mcd.Config, n), PowerCapW: chipCapPerCoreW * float64(n)}
	for i := range cfg.Cores {
		cfg.Cores[i] = machine(st.seed + int64(i))
	}
	chip, err := mcd.NewChip(cfg)
	if err != nil {
		return nil, err
	}
	srcs := make([]trace.Source, n)
	for i := 0; i < n; i++ {
		if err := pr.attachScheme(chip.Core(i), experiment.SchemeAdaptive, st.seed); err != nil {
			return nil, err
		}
		srcs[i] = pr.wrapSource(st.chip[i].Replay())
	}
	desc, ok := governor.Lookup(gov)
	if !ok {
		return nil, fmt.Errorf("unknown governor %q", gov)
	}
	g, err := desc.New(governor.Options{Cores: n, BudgetW: cfg.PowerCapW, Range: cfg.Cores[0].Range})
	if err != nil {
		return nil, err
	}
	chip.SetGovernor(pr.wrapGovernor(g))
	chip.SetWorkers(workers)
	cr, err := chip.Run(srcs)
	if err != nil {
		return nil, fmt.Errorf("chip/%s: %w", gov, err)
	}
	for i, r := range cr.Cores {
		if r.Metrics.Instructions != coreInsts {
			return nil, fmt.Errorf("chip/%s core %d retired %d instructions, want %d", gov, i, r.Metrics.Instructions, coreInsts)
		}
	}
	return cr, nil
}

// checkChip compares a chip result with its one-worker reference.
func (st *coreState) checkChip(gov string, cr *mcd.ChipResult) error {
	d, err := digest(cr)
	if err != nil {
		return err
	}
	if d != st.chipRef[gov] {
		return fmt.Errorf("chip/%s result differs between 1 worker and the default pool", gov)
	}
	return nil
}

// corePass runs every cell once and returns each cell's host time:
// the single-core cells in coreBenchmarks × coreSchemes order, then
// the chip cells.
func (st *coreState) corePass(t *tally) []time.Duration {
	var times []time.Duration
	for _, bench := range coreBenchmarks {
		for _, sch := range coreSchemes {
			t0 := time.Now()
			_, _, err := st.runSingle(bench, sch, nil)
			times = append(times, time.Since(t0))
			t.op(err)
		}
	}
	for _, gov := range chipGovernors {
		t0 := time.Now()
		cr, err := st.runChip(gov, 0, nil)
		times = append(times, time.Since(t0))
		if err == nil {
			err = st.checkChip(gov, cr)
		}
		t.op(err)
	}
	return times
}

// runCore measures passes over the cell list for the window. Each
// cell's cost is its median over the passes, so a burst of host noise
// during one cell moves no metric; a pass costs the sum of its cells'
// medians.
func runCore(e *env) (map[string]metric, error) {
	st, err := newCore(e.seed)
	if err != nil {
		return nil, err
	}
	setup := time.Since(e.start).Seconds()
	var cells [][]float64
	for deadline := time.Now().Add(e.window); len(cells) == 0 || time.Now().Before(deadline); {
		runtime.GC() // each pass starts from a collected heap
		times := st.corePass(e.tally)
		if cells == nil {
			cells = make([][]float64, len(times))
		}
		for i, d := range times {
			cells[i] = append(cells[i], d.Seconds())
		}
	}
	nSingle := len(coreBenchmarks) * len(coreSchemes)
	for i, xs := range cells {
		var name string
		if i < nSingle {
			name = coreBenchmarks[i/len(coreSchemes)] + "/" + string(coreSchemes[i%len(coreSchemes)])
		} else {
			name = "chip " + chipGovernors[i-nSingle]
		}
		fmt.Println(spread(name, xs, "s"))
	}
	var single, chip float64
	for i, xs := range cells {
		if i < nSingle {
			single += median(xs)
		} else {
			chip += median(xs)
		}
	}
	rate := float64(nSingle*coreInsts) / single
	fmt.Printf("core: %d passes; single-core cells %.1f ms at %.0f sim insts/s, chip cells %.1f ms\n",
		len(cells[0]), 1e3*single, rate, 1e3*chip)
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"sim_insts_per_s": {rate, "1/s"},
		"p50_ms":          {1e3 * chip, "ms"},
		"ops_per_s":       {1 / (single + chip), "1/s"},
	}, nil
}

// digest hashes v's JSON encoding: two results are byte-identical
// exactly when their digests match.
func digest(v any) ([sha256.Size]byte, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(blob), nil
}

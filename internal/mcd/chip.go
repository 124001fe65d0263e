package mcd

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/layout"
	"mcddvfs/internal/power"
	"mcddvfs/internal/trace"
)

// DefaultEpoch is the chip governor's control period when
// ChipConfig.Epoch is zero: 10 µs of simulated time, 2500 ticks of the
// 250 MHz sampling clock — long against the per-domain controllers'
// reaction times (so the governor sees settled power, not transients)
// and short against a full run (so a half-million-instruction workload
// spans dozens of control epochs).
const DefaultEpoch = 10 * clock.Microsecond

// maxEpochTrace bounds ChipResult.EpochTrace; epochs past it still
// regulate, they just stop being recorded.
const maxEpochTrace = 1 << 14

// MaxChipCores bounds ChipConfig.Cores: enough for any plausible
// experiment, small enough that a corrupt spec cannot allocate a
// machine per byte of garbage.
const MaxChipCores = 256

// ChipConfig describes an N-core MCD chip: one full per-core machine
// configuration each (domain set, DVFS range, faults, seeds), plus the
// chip-level power-cap control loop that runs above them.
type ChipConfig struct {
	// Cores holds one machine configuration per core. Each core gets
	// its own clock domains, event engine, meters, and controllers;
	// cores interact only through the governor.
	Cores []Config
	// PowerCapW is the chip-wide power budget the governor apportions
	// (0 = unbudgeted; meaningful only with a capping governor).
	PowerCapW float64
	// GovernorGain is the governor's integral gain in MHz of frequency
	// allowance per watt of budget error, applied once per epoch
	// (0 = the governor's default).
	GovernorGain float64
	// Epoch is the governor's control period in simulated time
	// (0 = DefaultEpoch). With no governor attached cores run free,
	// epoch barriers and all.
	Epoch clock.Time
}

// validateChip checks the chip-level fields alone.
func (c ChipConfig) validateChip() error {
	if len(c.Cores) == 0 {
		return errors.New("mcd: ChipConfig.Cores is empty")
	}
	if len(c.Cores) > MaxChipCores {
		return fmt.Errorf("mcd: ChipConfig.Cores has %d cores; max %d", len(c.Cores), MaxChipCores)
	}
	if c.PowerCapW < 0 {
		return fmt.Errorf("mcd: ChipConfig.PowerCapW %v is negative", c.PowerCapW)
	}
	if c.GovernorGain < 0 {
		return fmt.Errorf("mcd: ChipConfig.GovernorGain %v is negative", c.GovernorGain)
	}
	if c.Epoch < 0 {
		return fmt.Errorf("mcd: ChipConfig.Epoch %v is negative", c.Epoch)
	}
	return nil
}

// Governor is a chip-level power-cap policy. Once per control epoch the
// chip hands it each core's mean power over the epoch just ended and
// the cap slice from the previous epoch; the governor rewrites caps in
// place (MHz per core, 0 = uncapped) and the chip actuates them via
// Processor.SetFreqCap. Implementations live in internal/governor and
// register themselves there; mcd only defines the contract so the
// dependency points registry → simulator, mirroring internal/scheme.
//
// Apportion runs between epochs on a single goroutine with every core
// paused, always at the same simulated instants regardless of the
// worker-pool size — a governor that derives its output only from its
// arguments and its own state is deterministic by construction.
type Governor interface {
	Apportion(now clock.Time, powerW []float64, capMHz []float64)
}

// EpochSample is one recorded governor control epoch.
type EpochSample struct {
	// Time is the epoch barrier's simulated time.
	Time clock.Time
	// CorePowerW is each core's mean power over the epoch just ended.
	CorePowerW []float64
	// CapMHz is the per-core frequency cap the governor set at this
	// barrier (0 = uncapped).
	CapMHz []float64
	// CoreInsts is each core's cumulative retired-instruction count.
	CoreInsts []int64
}

// TotalPowerW sums the per-core powers.
func (s EpochSample) TotalPowerW() float64 {
	total := 0.0
	for _, w := range s.CorePowerW {
		total += w
	}
	return total
}

// ChipResult is the outcome of a chip run: every core's full Result in
// core-index order plus the chip-level rollup.
type ChipResult struct {
	// Cores holds one Result per core, indexed like ChipConfig.Cores.
	Cores []*Result
	// Metrics is the chip rollup: energy and instructions summed over
	// cores, execution time the latest core finish.
	Metrics power.Metrics
	// PowerCapW echoes the configured budget (0 = unbudgeted).
	PowerCapW float64 `json:",omitempty"`
	// EpochTrace records the governor's control history (nil without a
	// governor; bounded by maxEpochTrace).
	EpochTrace []EpochSample `json:",omitempty"`
}

// MeanPowerW is the chip's mean power over the run.
func (r *ChipResult) MeanPowerW() float64 {
	if sec := r.Metrics.ExecTime.Seconds(); sec > 0 {
		return r.Metrics.EnergyJ / sec
	}
	return 0
}

// chipDomainNames is the canonical domain iteration order for
// aggregation — Result.Domains is a map, and map order must never
// reach a float accumulation.
var chipDomainNames = [...]string{NameFrontEnd, NameFetch, NameInt, NameFP, NameLS}

// Aggregate flattens the chip run into one Result shaped like a
// single-core run, for renderers that compare Metrics: energy,
// instructions, and per-domain counters summed across cores, execution
// time the latest finish, rates instruction-weighted. Occupancy
// samples and frequency traces come from core 0 (they are per-core
// series; summing them is meaningless).
func (r *ChipResult) Aggregate() *Result {
	if len(r.Cores) == 1 {
		return r.Cores[0]
	}
	out := &Result{
		Benchmark:       "chip",
		Scheme:          r.Cores[0].Scheme,
		Domains:         make(map[string]DomainStats, 5),
		QueueSamples:    r.Cores[0].QueueSamples,
		FreqTrace:       r.Cores[0].FreqTrace,
		QueueFullStalls: r.Cores[0].QueueFullStalls,
		RetiredByClass:  make(map[string]int64),
	}
	same := true
	for _, c := range r.Cores {
		if c.Benchmark != r.Cores[0].Benchmark {
			same = false
			break
		}
	}
	if same {
		out.Benchmark = r.Cores[0].Benchmark
	}
	execSec := r.Metrics.ExecTime.Seconds()
	for _, name := range chipDomainNames {
		var ds DomainStats
		cores := 0
		for _, c := range r.Cores {
			cs, ok := c.Domains[name]
			if !ok {
				continue
			}
			cores++
			ds.EnergyJ += cs.EnergyJ
			ds.DynamicJ += cs.DynamicJ
			ds.LeakageJ += cs.LeakageJ
			ds.Cycles += cs.Cycles
			ds.Transitions += cs.Transitions
			ds.SlewTime += cs.SlewTime
			ds.MeanActivity += cs.MeanActivity
			ds.MeanOccupancy += cs.MeanOccupancy
		}
		if cores == 0 {
			continue
		}
		ds.MeanActivity /= float64(cores)
		ds.MeanOccupancy /= float64(cores)
		if execSec > 0 {
			// Chip-level mean: per-core cycle counts over the chip's
			// wall of execution, summed across cores.
			ds.MeanFreqMHz = float64(ds.Cycles) / execSec / 1e6 / float64(cores)
		}
		out.Domains[name] = ds
	}
	var insts float64
	for _, c := range r.Cores {
		w := float64(c.Metrics.Instructions)
		insts += w
		out.IPC += c.IPC * w
		out.BranchMispredictRate += c.BranchMispredictRate * w
		out.L1DMissRate += c.L1DMissRate * w
		out.L1IMissRate += c.L1IMissRate * w
		out.L2MissRate += c.L2MissRate * w
		out.ForwardedLoads += c.ForwardedLoads
		for cls, n := range c.RetiredByClass {
			out.RetiredByClass[cls] += n
		}
	}
	if insts > 0 {
		out.IPC /= insts
		out.BranchMispredictRate /= insts
		out.L1DMissRate /= insts
		out.L1IMissRate /= insts
		out.L2MissRate /= insts
	}
	out.Metrics = r.Metrics
	return out
}

// Chip is an N-core MCD machine: independent cores coupled only by a
// chip-level power-cap governor. Create it with NewChip, optionally
// attach per-core controllers (Core) and a governor (SetGovernor), then
// call Run exactly once.
type Chip struct {
	cfg     ChipConfig
	cores   []*Processor
	runs    []coreRun // per-core run state, indexed like cores
	gov     Governor
	workers int
	ran     bool
}

// coreRun is one core's run state across RunContext's epochs. Only the
// worker advancing the core writes it, while other workers write their
// own cores' slots, so each slot fills whole layout.Blocks.
type coreRun struct {
	coreRunState
	_ [(layout.Block - unsafe.Sizeof(coreRunState{})%layout.Block) % layout.Block]byte
}

// coreRunState is coreRun's state.
type coreRunState struct {
	err       error
	recovered any // a panic value, re-raised on the caller's goroutine
	done      bool
	// cost is the host time the core's last epoch took: the next epoch
	// dispatches the costliest cores first.
	cost time.Duration
}

// hostNow reads the host's wall clock. The chip uses it only to order
// each epoch's dispatch, which decides which worker advances which core
// when and never reaches a result.
func hostNow() time.Time {
	return time.Now() //lint:allow detsource dispatch order only; results merge in core-index order
}

// NewChip builds a chip from cfg, constructing every core.
func NewChip(cfg ChipConfig) (*Chip, error) {
	if err := cfg.validateChip(); err != nil {
		return nil, err
	}
	c := &Chip{cfg: cfg, cores: make([]*Processor, len(cfg.Cores)), runs: layout.Slice[coreRun](len(cfg.Cores))}
	for i := range cfg.Cores {
		// New validates the core's configuration.
		p, err := New(cfg.Cores[i])
		if err != nil {
			return nil, fmt.Errorf("mcd: chip core %d: %w", i, err)
		}
		c.cores[i] = p
	}
	return c, nil
}

// Cores reports the core count.
func (c *Chip) Cores() int { return len(c.cores) }

// Core exposes one core's Processor for controller attachment, exactly
// as a single-core caller would use it.
func (c *Chip) Core(i int) *Processor { return c.cores[i] }

// SetGovernor installs the chip-level power-cap policy (nil = none:
// cores run to completion with no epoch barriers at all, so a 1-core
// governorless chip is the single-processor path, bit for bit).
func (c *Chip) SetGovernor(g Governor) {
	if c.ran {
		panic("mcd: SetGovernor after Run")
	}
	c.gov = g
}

// SetWorkers bounds the worker pool that advances cores in parallel
// (0 = GOMAXPROCS). Purely a throughput knob: cores only ever
// synchronize at epoch barriers and the merge order is core index, so
// every pool size (and so every dispatch order) produces
// byte-identical ChipResults.
func (c *Chip) SetWorkers(n int) {
	if c.ran {
		panic("mcd: SetWorkers after Run")
	}
	c.workers = n
}

// Run simulates every core to completion. srcs supplies one
// instruction source per core, indexed like ChipConfig.Cores.
func (c *Chip) Run(srcs []trace.Source) (*ChipResult, error) {
	return c.RunContext(context.Background(), srcs)
}

// RunContext is Run with cancellation. Cores advance concurrently on
// the worker pool; with a governor attached they pause at every epoch
// boundary, the governor re-apportions the power budget from each
// core's epoch energy, and the new caps actuate before any core
// consumes an edge past the barrier. All cross-core reads and all
// reductions happen between barriers in core-index order, so the
// result is independent of worker count and completion order.
// A core's panic is re-raised on the caller's goroutine once the pool
// has drained, as Processor.RunContext would raise it.
//
// Each epoch dispatches its live cores longest first: in decreasing
// order of the host time each took in the previous epoch, ties in
// core-index order. With fewer workers than cores, the costliest core
// then starts first instead of last, and the epoch ends sooner. The
// order changes only which worker advances which core when, never a
// result.
func (c *Chip) RunContext(ctx context.Context, srcs []trace.Source) (*ChipResult, error) {
	if c.ran {
		return nil, errors.New("mcd: Chip.Run called twice; create a new Chip per run")
	}
	c.ran = true
	n := len(c.cores)
	if len(srcs) != n {
		return nil, fmt.Errorf("mcd: chip has %d cores but %d sources", n, len(srcs))
	}
	for i, p := range c.cores {
		if err := p.beginEventRun(ctx, srcs[i]); err != nil {
			return nil, c.coreErr(i, err)
		}
	}

	epoch := c.cfg.Epoch
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	deadline := clock.Forever
	if c.gov != nil {
		deadline = epoch
	}
	// live holds the unfinished cores in index order, order the same
	// cores in dispatch order; the power and cap slices exist only
	// under a governor.
	runs := c.runs
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	order := make([]int, 0, n)
	var caps, powerW, lastJ []float64
	if c.gov != nil {
		buf := make([]float64, 3*n)
		caps, powerW, lastJ = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	}
	advance := func(i int) {
		r := &runs[i]
		defer func() {
			if v := recover(); v != nil {
				r.recovered = v
				r.done = true
			}
		}()
		start := hostNow()
		d, err := c.cores[i].advanceEvent(ctx, deadline)
		r.cost = hostNow().Sub(start)
		r.err = err
		r.done = d || err != nil
	}
	res := &ChipResult{Cores: make([]*Result, n), PowerCapW: c.cfg.PowerCapW}
	for len(live) > 0 {
		order = append(order[:0], live...)
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(runs[b].cost, runs[a].cost) })
		c.forEachCore(order, advance)
		next := live[:0]
		for _, i := range live {
			if r := runs[i].recovered; r != nil {
				if n > 1 {
					r = fmt.Sprintf("mcd: chip core %d: %v", i, r)
				}
				panic(r)
			}
			if runs[i].err != nil {
				return nil, c.coreErr(i, runs[i].err)
			}
			if !runs[i].done {
				next = append(next, i)
			}
		}
		live = next
		if c.gov == nil || len(live) == 0 {
			break
		}
		// Epoch barrier: sense, apportion, actuate — single-threaded,
		// core-index order, at simulated time `deadline` exactly.
		for i := 0; i < n; i++ {
			j := c.cores[i].EnergySnapshotJ()
			powerW[i] = (j - lastJ[i]) / epoch.Seconds()
			lastJ[i] = j
		}
		c.gov.Apportion(deadline, powerW, caps)
		for _, i := range live {
			c.cores[i].SetFreqCap(deadline, caps[i])
		}
		if len(res.EpochTrace) < maxEpochTrace {
			s := EpochSample{
				Time:       deadline,
				CorePowerW: append([]float64(nil), powerW...),
				CapMHz:     append([]float64(nil), caps...),
				CoreInsts:  make([]int64, n),
			}
			for i := 0; i < n; i++ {
				s.CoreInsts[i] = c.cores[i].RetiredInsts()
			}
			res.EpochTrace = append(res.EpochTrace, s)
		}
		deadline += epoch
	}

	var end clock.Time
	for i := 0; i < n; i++ {
		r := c.cores[i].collect(c.cores[i].eventNow)
		res.Cores[i] = r
		res.Metrics.EnergyJ += r.Metrics.EnergyJ
		res.Metrics.Instructions += r.Metrics.Instructions
		if r.Metrics.ExecTime > end {
			end = r.Metrics.ExecTime
		}
	}
	res.Metrics.ExecTime = end
	return res, nil
}

// coreErr attributes a run failure to core i. A 1-core chip reports it
// bare, exactly as the single processor would.
func (c *Chip) coreErr(i int, err error) error {
	if len(c.cores) == 1 {
		return err
	}
	return fmt.Errorf("mcd: chip core %d: %w", i, err)
}

// forEachCore runs fn(i) for every core index in order, handing the
// indices out over the worker pool in that order. Each invocation only
// writes its own core's state and its own slots of the caller's
// per-core slices, and the caller reads nothing until every worker has
// drained, so the pool needs no ordering beyond the final barrier.
func (c *Chip) forEachCore(order []int, fn func(i int)) {
	w := c.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(order) {
		w = len(order)
	}
	if w <= 1 {
		for _, i := range order {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for _, i := range order {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// NumExecDomains re-exports the per-core execution-domain count for
// governor implementations that reason about per-domain headroom.
const NumExecDomains = isa.NumExecDomains

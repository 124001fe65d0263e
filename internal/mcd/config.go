// Package mcd implements the multiple-clock-domain out-of-order
// processor simulator the paper evaluates on: a 4-domain GALS machine
// (front end, integer core, floating-point core, load/store unit) in the
// style of Semeraro et al., with per-domain DVFS, synchronizing
// interface/issue queues, a Wattch-style energy model, and an
// independent 250 MHz occupancy-sampling clock that drives the attached
// DVFS controllers.
package mcd

import (
	"fmt"
	"math"
	"sort"

	"mcddvfs/internal/cache"
	"mcddvfs/internal/clock"
	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/faults"
	"mcddvfs/internal/power"
	"mcddvfs/internal/queue"
)

// Domain names used throughout the simulator and the power model.
// NameFetch only exists on split-front-end (5-domain) machines.
const (
	NameFrontEnd = "FrontEnd"
	NameFetch    = "Fetch"
	NameInt      = "INT"
	NameFP       = "FP"
	NameLS       = "LS"
)

// Config carries every Table-1 machine parameter.
type Config struct {
	// Pipeline widths (Table 1: decode/issue/retire = 4/6/11; fetch
	// matches decode).
	FetchWidth  int
	DecodeWidth int
	IssueWidth  int // global cap across domains per front-end cycle span
	RetireWidth int

	// Window sizes (Table 1: ROB 80, LS retire buffer 64, issue queues
	// 20 INT / 16 FP / 16 LS).
	ROBSize  int
	LSQSize  int
	IntQSize int
	FPQSize  int
	LSQueue  int
	FetchBuf int
	PhysInt  int // physical integer registers (72)
	PhysFP   int // physical FP registers (72)

	// Functional units (Table 1: 4 int ALUs + mult/div, 2 FP ALUs +
	// mult/div/sqrt, 2 L1D ports).
	IntALUs    int
	IntMultDiv int
	FPALUs     int
	FPMultDiv  int
	MemPorts   int

	// MispredictRedirect is the front-end redirect penalty in
	// front-end cycles after a mispredicted branch resolves.
	MispredictRedirect int

	// StoreForwarding enables store-to-load forwarding in the LS
	// domain: a load whose address matches an in-flight older store
	// receives the value from the store queue (2 cycles) instead of
	// accessing the cache.
	StoreForwarding bool

	// Prefetch enables a next-line prefetcher on L1D misses.
	Prefetch bool

	// DeepSleep gates a domain's clock tree entirely while it has an
	// empty queue and nothing in flight, cutting its idle dynamic
	// energy to DeepSleepFactor of full activity (vs the ~10% regular
	// clock gating leaves on). An extension beyond the paper's
	// aggressive-clock-gating assumption.
	DeepSleep bool
	// DeepSleepFactor is the residual dynamic fraction while asleep
	// (default 0.02 when DeepSleep is enabled).
	DeepSleepFactor float64

	// SplitFrontEnd selects the 5-domain partition of Iyer &
	// Marculescu (Section 2 of the paper): the front end splits into a
	// fetch domain and a dispatch/rename domain, with a synchronizing
	// queue at the new boundary. By default both front-end domains stay
	// at f_max (the paper's methodology); the study quantifies the cost
	// of the extra synchronization boundary.
	SplitFrontEnd bool

	// ControlFrontEnd (requires SplitFrontEnd) makes the dispatch
	// domain DVFS-controllable, driven by the fetch-queue occupancy —
	// the flexibility the 5-domain partition exists to buy. The fetch
	// domain stays at f_max (its input is the I-cache, not a queue).
	// Attach the controller with Processor.AttachFrontEnd.
	ControlFrontEnd bool

	// Clocking.
	Range        dvfs.Range           // controllable domain envelope
	Transitions  dvfs.TransitionModel // physical DVFS cost model
	SamplingMHz  float64              // queue signal sampling rate (250 MHz)
	SyncWindowPS float64              // inter-domain synchronization window (300 ps)
	SyncPolicy   queue.SyncPolicy     // arbitration (paper) or token-ring interface
	JitterPS     float64              // per-domain clock jitter (±110 ps)

	// Substrates.
	Cache cache.Config
	Power map[string]power.DomainModel

	// Seed makes runs reproducible.
	Seed int64

	// Faults configures the deterministic fault-injection layer on the
	// DVFS control loop's sensor and actuator paths. The zero value
	// disables injection and leaves every output bit-identical to a
	// machine built without it.
	Faults faults.Config

	// SampleLimit bounds retained occupancy samples per queue
	// (0 = unlimited). Controllers always see live values.
	SampleLimit int

	// FreqTraceLimit bounds retained frequency-trace points per domain.
	FreqTraceLimit int
}

// DefaultConfig returns the Table-1 machine.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		DecodeWidth: 4,
		IssueWidth:  6,
		RetireWidth: 11,

		ROBSize:  80,
		LSQSize:  64,
		IntQSize: 20,
		FPQSize:  16,
		LSQueue:  16,
		FetchBuf: 16,
		PhysInt:  72,
		PhysFP:   72,

		IntALUs:    4,
		IntMultDiv: 1,
		FPALUs:     2,
		FPMultDiv:  1,
		MemPorts:   2,

		MispredictRedirect: 2,
		StoreForwarding:    true,

		Range:        dvfs.Default(),
		Transitions:  dvfs.DefaultTransitions(),
		SamplingMHz:  250,
		SyncWindowPS: 300,
		JitterPS:     110,

		Cache: cache.Default(),
		Power: power.DefaultModels(),

		FreqTraceLimit: 1 << 16,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	pos := map[string]int{
		"FetchWidth": c.FetchWidth, "DecodeWidth": c.DecodeWidth,
		"IssueWidth": c.IssueWidth, "RetireWidth": c.RetireWidth,
		"ROBSize": c.ROBSize, "LSQSize": c.LSQSize,
		"IntQSize": c.IntQSize, "FPQSize": c.FPQSize, "LSQueue": c.LSQueue,
		"FetchBuf": c.FetchBuf, "PhysInt": c.PhysInt, "PhysFP": c.PhysFP,
		"IntALUs": c.IntALUs, "IntMultDiv": c.IntMultDiv,
		"FPALUs": c.FPALUs, "FPMultDiv": c.FPMultDiv, "MemPorts": c.MemPorts,
	}
	// Sorted so the first failure reported is deterministic when
	// several fields are invalid.
	names := make([]string, 0, len(pos))
	for name := range pos {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := pos[name]; v <= 0 {
			return fmt.Errorf("mcd: %s must be positive, got %d", name, v)
		}
	}
	// The sampled queues' occupancies are stored as uint16 (Series).
	for _, name := range []string{"FPQSize", "FetchBuf", "IntQSize", "LSQueue"} {
		if v := pos[name]; v > math.MaxUint16 {
			return fmt.Errorf("mcd: %s must be at most %d, got %d", name, math.MaxUint16, v)
		}
	}
	if c.SamplingMHz <= 0 {
		return fmt.Errorf("mcd: SamplingMHz must be positive")
	}
	if c.SyncWindowPS < 0 || c.JitterPS < 0 {
		return fmt.Errorf("mcd: negative sync window or jitter")
	}
	if c.SyncPolicy != queue.SyncArbitration && c.SyncPolicy != queue.SyncTokenRing {
		return fmt.Errorf("mcd: unknown sync policy %d", int(c.SyncPolicy))
	}
	if c.DeepSleepFactor < 0 {
		return fmt.Errorf("mcd: negative DeepSleepFactor %g", c.DeepSleepFactor)
	}
	if c.ControlFrontEnd && !c.SplitFrontEnd {
		return fmt.Errorf("mcd: ControlFrontEnd requires SplitFrontEnd")
	}
	if err := c.Range.Validate(); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	for _, name := range []string{NameFrontEnd, NameInt, NameFP, NameLS} {
		m, ok := c.Power[name]
		if !ok {
			return fmt.Errorf("mcd: missing power model for domain %s", name)
		}
		if err := m.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SyncWindow returns the synchronization window as a clock.Time.
func (c *Config) SyncWindow() clock.Time {
	return clock.Time(c.SyncWindowPS * float64(clock.Picosecond))
}

// SamplingPeriod returns the occupancy sampling period.
func (c *Config) SamplingPeriod() clock.Time {
	return clock.PeriodForMHz(c.SamplingMHz)
}

// Package baselines implements the prior-work DVFS schemes the paper
// compares against: the fixed-interval attack/decay controller of
// Semeraro et al. (reference [9]) and the fixed-interval PID controller
// of Wu et al. (reference [23]), plus their hardware-cost models for
// the Section-3.1 comparison. All controllers implement the simulator's
// per-domain Controller interface (Observe per 250 MHz sampling tick);
// interval boundaries are counted in sampling ticks internally, which
// is exactly the "predetermined interval independent of workload
// changes" property the paper's adaptive scheme removes.
package baselines

import (
	"fmt"
	"unsafe"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/layout"
)

// AttackDecayConfig parameterizes the Semeraro et al. [9] controller.
type AttackDecayConfig struct {
	// IntervalTicks is the fixed decision interval in sampling ticks.
	// 2500 ticks at 250 MHz = 10 µs ≈ the 10K-instruction interval of
	// the original scheme at IPC ≈ 1 and 1 GHz.
	IntervalTicks int
	// QRef is the target queue occupancy used to center reactions.
	QRef float64
	// AttackThreshold is the interval-to-interval change in average
	// occupancy (entries) that counts as a significant workload change.
	AttackThreshold float64
	// AttackGainMHz is the frequency response per entry of occupancy
	// deviation during an attack.
	AttackGainMHz float64
	// DecayRate is the fractional frequency decay applied per quiet
	// interval when the queue sits below the reference.
	DecayRate float64
	// Range is the operating envelope.
	Range dvfs.Range
}

// DefaultAttackDecay returns the configuration used in the evaluation.
func DefaultAttackDecay() AttackDecayConfig {
	return AttackDecayConfig{
		IntervalTicks:   2500,
		QRef:            4,
		AttackThreshold: 1.0,
		AttackGainMHz:   60,
		DecayRate:       0.0125,
		Range:           dvfs.Default(),
	}
}

// Validate checks the configuration.
func (c AttackDecayConfig) Validate() error {
	if c.IntervalTicks <= 0 {
		return fmt.Errorf("baselines: non-positive attack/decay interval")
	}
	if c.AttackThreshold < 0 || c.AttackGainMHz <= 0 {
		return fmt.Errorf("baselines: bad attack parameters")
	}
	if c.DecayRate <= 0 || c.DecayRate >= 1 {
		return fmt.Errorf("baselines: decay rate %g outside (0,1)", c.DecayRate)
	}
	return c.Range.Validate()
}

// AttackDecay is the fixed-interval attack/decay controller: at each
// interval boundary it compares the interval's average occupancy with
// the previous interval's; a significant swing triggers a proportional
// frequency "attack", otherwise the frequency "decays" slowly downward
// while the queue is comfortable (saving energy) and snaps upward when
// the queue runs clearly above the reference.
type AttackDecay struct {
	attackDecayState
	// Whole layout.Blocks: each core has its own, written every tick.
	_ [(layout.Block - unsafe.Sizeof(attackDecayState{})%layout.Block) % layout.Block]byte
}

// attackDecayState is AttackDecay's state.
type attackDecayState struct {
	cfg AttackDecayConfig

	ticks   int
	sum     float64
	prevAvg float64
	have    bool
}

// NewAttackDecay builds the controller; invalid configs panic.
func NewAttackDecay(cfg AttackDecayConfig) *AttackDecay {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &AttackDecay{attackDecayState: attackDecayState{cfg: cfg}}
}

// Name implements the Controller interface.
func (a *AttackDecay) Name() string { return "attack-decay" }

// Reset implements the Controller interface.
func (a *AttackDecay) Reset() {
	a.ticks, a.sum, a.prevAvg, a.have = 0, 0, 0, false
}

// Observe implements the Controller interface.
func (a *AttackDecay) Observe(_ clock.Time, occ int, cur float64) (float64, bool) {
	a.sum += float64(occ)
	a.ticks++
	if a.ticks < a.cfg.IntervalTicks {
		return 0, false
	}
	avg := a.sum / float64(a.ticks)
	a.ticks, a.sum = 0, 0

	if !a.have {
		a.prevAvg, a.have = avg, true
		return 0, false
	}
	delta := avg - a.prevAvg
	a.prevAvg = avg

	dev := avg - a.cfg.QRef
	var target float64
	switch {
	case delta > a.cfg.AttackThreshold || delta < -a.cfg.AttackThreshold:
		// Attack: respond proportionally to the occupancy deviation.
		target = cur + a.cfg.AttackGainMHz*dev
	case dev > 1:
		// Queue persistently above reference: protect performance.
		target = cur + a.cfg.AttackGainMHz*dev
	default:
		// Quiet interval: decay downward to harvest energy.
		target = cur * (1 - a.cfg.DecayRate)
	}
	target = a.cfg.Range.Clamp(target)
	if target == cur {
		return 0, false
	}
	return target, true
}

// AttackDecayHardware models the decision-logic cost of [9]: interval
// statistics accumulators plus the multiply needed to scale the
// deviation into a frequency setting each interval.
func AttackDecayHardware() control.HardwareBudget {
	return control.HardwareBudget{
		Scheme:      "attack-decay",
		Adders:      []int{16, 16}, // occupancy accumulator, delta
		Comparators: []int{16, 16}, // threshold tests
		Counters:    []int{12},     // interval tick counter
		Multipliers: []int{16},     // gain * deviation
		Registers:   16 + 16,       // previous average, current setting
		FSMStates:   2,
	}
}

// Package control implements the paper's primary contribution: the
// intra-task online DVFS controller with *adaptive reaction time* for
// multiple-clock-domain processors (Section 3).
//
// Per controlled domain, the controller monitors two queue signals at
// every sampling tick i:
//
//	level signal  sM = q_i − q_ref       (deviation window ±1)
//	slope signal  sL = q_i − q_{i−1}     (deviation window 0)
//
// Each signal drives its own five-state finite state machine (Figure 4:
// Wait, Count-Up, Count-Down, Start, Act) with a resettable time-delay
// counter. A signal outside its deviation window accumulates delay
// credit; falling back inside the window resets the counter (noise
// rejection). When the accumulated delay passes the basic time delay
// (T_m0 = 50 or T_l0 = 8 sampling periods), a single ±step
// frequency/voltage change is triggered; the physical switch takes the
// transition time T_s, during which the FSM parks in Act.
//
// Two refinements from the paper:
//   - signal-dependent delay (Eq. 5): the counter increments faster for
//     larger |signal|, so severe swings trigger sooner;
//   - frequency-dependent down-scaling caution: the count-down delay is
//     scaled by 1/f̃² (f̃ = f/f_max), making the controller increasingly
//     reluctant to scale an already-slow domain further down.
//
// A scheduler reconciles the two FSMs (Section 3.1): two simultaneous
// triggers in the same direction combine into one double-size step; two
// opposite triggers cancel and both FSMs reset.
package control

import (
	"fmt"
	"unsafe"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/layout"
)

// Config parameterizes one adaptive controller instance.
type Config struct {
	// QRef is the reference (target) queue occupancy. Table 1: 7 for
	// INT, 4 for FP and LS. Raising QRef makes the controller more
	// aggressive about saving energy; lowering it preserves
	// performance (Section 3.1).
	QRef int
	// DWLevel is the deviation-window half-width for the level signal
	// q−q_ref (Table 1: ±1).
	DWLevel int
	// DWSlope is the deviation-window half-width for the slope signal
	// q_i−q_{i−1} (Table 1: 0).
	DWSlope int
	// TM0 and TL0 are the basic time delays, in sampling periods, for
	// the level and slope signals (Section 5.1: T_m0 = 50, T_l0 = 8;
	// Remark 3 wants TM0 ≈ 2–8 × TL0).
	TM0 float64
	TL0 float64
	// GainM and GainL are the m and l conversion constants of Eq. 5:
	// the counter increment per sampling period is Gain·|signal| when
	// signal-scaled delay is enabled.
	GainM float64
	GainL float64
	// StepMHz is the frequency step of one triggered action (one grid
	// step, ≈2.3 MHz).
	StepMHz float64
	// SwitchTime is T_s: the physical time one single-step transition
	// takes (the FSM parks in Act for this long).
	SwitchTime clock.Time
	// Range is the operating envelope (for relative frequency and
	// clamping).
	Range dvfs.Range

	// Feature switches, all true in the paper's design; exposed for the
	// ablation experiments.
	SignalScaledDelay bool // larger |signal| counts faster (Eq. 5)
	ScaleDownCaution  bool // count-down delay × 1/f̃²
	CombineDouble     bool // scheduler merges agreeing triggers into a 2× step

	// ProportionalStep is a design-space extension beyond the paper:
	// instead of a fixed single step per action, the step count scales
	// with the level excursion (|q−q_ref|/4, clamped to [1,
	// MaxPropSteps]). The paper argues for fixed fine-grained steps
	// under the XScale model; this knob measures what proportional
	// actuation would buy or cost.
	ProportionalStep bool
	// MaxPropSteps caps the proportional step count (default 4).
	MaxPropSteps int
}

// DefaultConfig returns the paper's Section-5.1 configuration for a
// given execution domain.
func DefaultConfig(domain isa.ExecDomain) Config {
	r := dvfs.Default()
	qref := 4
	if domain == isa.DomainInt {
		qref = 7 // Table 1: roughly 1/3 of the 20-entry INT queue
	}
	tm := dvfs.DefaultTransitions()
	return Config{
		QRef:    qref,
		DWLevel: 1,
		DWSlope: 0,
		TM0:     50,
		TL0:     8,
		GainM:   1,
		GainL:   1,
		StepMHz: r.StepMHz(),
		// T_s for a single step at the Table-1 slew rate (~172 ns).
		SwitchTime: tm.TimeFor(r, r.StepMHz()),
		Range:      r,

		SignalScaledDelay: true,
		ScaleDownCaution:  true,
		CombineDouble:     true,
		MaxPropSteps:      4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.QRef < 0 {
		return fmt.Errorf("control: negative QRef %d", c.QRef)
	}
	if c.DWLevel < 0 || c.DWSlope < 0 {
		return fmt.Errorf("control: negative deviation window")
	}
	if c.TM0 <= 0 || c.TL0 <= 0 {
		return fmt.Errorf("control: non-positive basic time delay (TM0=%g TL0=%g)", c.TM0, c.TL0)
	}
	if c.GainM <= 0 || c.GainL <= 0 {
		return fmt.Errorf("control: non-positive gain")
	}
	if c.StepMHz <= 0 {
		return fmt.Errorf("control: non-positive step")
	}
	if c.SwitchTime < 0 {
		return fmt.Errorf("control: negative switch time")
	}
	return c.Range.Validate()
}

// fsmState is a five-state Figure-4 machine state. Start and Act are
// folded together: in this simulator triggering and actuation happen at
// the same sampling tick, and the Act residency is modeled by the
// controller-level switching hold.
type fsmState uint8

const (
	stateWait fsmState = iota
	stateCountUp
	stateCountDown
)

// signalFSM is one of the two per-signal state machines.
type signalFSM struct {
	state   fsmState
	counter float64
}

// trigger values returned by step.
const (
	trigNone = 0
	trigUp   = +1
	trigDown = -1
)

// step advances the FSM by one sampling tick and returns a trigger when
// the accumulated delay crosses the threshold.
//
// signal is the raw queue signal; dw the deviation window half-width;
// threshold the basic time delay; inc the per-tick counter increment
// (already signal- and frequency-scaled by the caller).
func (f *signalFSM) step(signal, dw int, threshold, inc float64) int {
	switch {
	case signal > dw:
		if f.state != stateCountUp {
			f.state = stateCountUp
			f.counter = 0
		}
		f.counter += inc
		if f.counter >= threshold {
			f.reset()
			return trigUp
		}
	case signal < -dw:
		if f.state != stateCountDown {
			f.state = stateCountDown
			f.counter = 0
		}
		f.counter += inc
		if f.counter >= threshold {
			f.reset()
			return trigDown
		}
	default:
		// Inside the deviation window: noise rejection resets the
		// counter (the resettable time-delay relay of Section 3).
		f.reset()
	}
	return trigNone
}

func (f *signalFSM) reset() {
	f.state = stateWait
	f.counter = 0
}

// Stats counts controller events for reports and ablations.
type Stats struct {
	Samples       uint64
	Actions       int // frequency changes issued (double steps count once)
	UpSteps       int // total up steps (a double step counts 2)
	DownSteps     int
	Cancellations int // opposite simultaneous triggers annulled
	DoubleSteps   int // agreeing simultaneous triggers merged
}

// Adaptive is the paper's event-driven DVFS controller. It implements
// the simulator's Controller interface (Observe is called at each
// 250 MHz sampling tick).
type Adaptive struct {
	adaptiveState
	// Whole layout.Blocks: each core has its own, written every tick.
	_ [(layout.Block - unsafe.Sizeof(adaptiveState{})%layout.Block) % layout.Block]byte
}

// adaptiveState is Adaptive's state.
type adaptiveState struct {
	cfg Config

	level signalFSM
	slope signalFSM

	prevOcc  int
	havePrev bool

	// holdUntil parks the controller in the Act state while the
	// physical transition completes.
	holdUntil clock.Time

	stats Stats
}

// NewAdaptive creates a controller; it panics on invalid configuration
// (construction is programmer-controlled).
func NewAdaptive(cfg Config) *Adaptive {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Adaptive{adaptiveState: adaptiveState{cfg: cfg}}
}

// Name implements the Controller interface.
func (a *Adaptive) Name() string { return "adaptive" }

// Reset implements the Controller interface.
func (a *Adaptive) Reset() {
	a.level.reset()
	a.slope.reset()
	a.prevOcc = 0
	a.havePrev = false
	a.holdUntil = 0
	a.stats = Stats{}
}

// Observe implements the Controller interface: one sampling tick.
func (a *Adaptive) Observe(now clock.Time, occ int, curMHz float64) (float64, bool) {
	a.stats.Samples++

	sM := occ - a.cfg.QRef
	sL := 0
	if a.havePrev {
		sL = occ - a.prevOcc
	}
	a.prevOcc = occ
	a.havePrev = true

	// Act state: the physical switch is still in flight; signals are
	// not examined until it completes (Figure 4: "after Ts, any
	// signal" -> Wait).
	if now < a.holdUntil {
		return 0, false
	}

	rel := a.cfg.Range.RelativeFreq(curMHz)

	tM := a.level.step(sM, a.cfg.DWLevel, a.cfg.TM0, a.increment(a.cfg.GainM, sM, rel))
	tL := a.slope.step(sL, a.cfg.DWSlope, a.cfg.TL0, a.increment(a.cfg.GainL, sL, rel))

	steps := a.reconcile(tM, tL)
	if steps == 0 {
		return 0, false
	}
	if a.cfg.ProportionalStep {
		mag := sM / 4
		if mag < 0 {
			mag = -mag
		}
		if mag < 1 {
			mag = 1
		}
		maxSteps := a.cfg.MaxPropSteps
		if maxSteps < 1 {
			maxSteps = 1
		}
		if mag > maxSteps {
			mag = maxSteps
		}
		steps *= mag
	}

	a.stats.Actions++
	if steps > 0 {
		a.stats.UpSteps += steps
	} else {
		a.stats.DownSteps -= steps
	}
	target := a.cfg.Range.Step(curMHz, steps)
	n := steps
	if n < 0 {
		n = -n
	}
	a.holdUntil = now + clock.Time(int64(n))*a.cfg.SwitchTime
	a.level.reset()
	a.slope.reset()
	return target, true
}

// increment computes the per-tick counter increment for a signal value:
// gain·|signal| under signal-scaled delay (Eq. 5), with the count-down
// 1/f̃² caution factor applied as a f̃² increment scale.
func (a *Adaptive) increment(gain float64, signal int, relFreq float64) float64 {
	inc := gain
	if a.cfg.SignalScaledDelay {
		s := signal
		if s < 0 {
			s = -s
		}
		if s > 0 {
			inc = gain * float64(s)
		}
	}
	if a.cfg.ScaleDownCaution && signal < 0 {
		inc *= relFreq * relFreq
	}
	return inc
}

// reconcile implements the Section-3.1 scheduler: merge or cancel
// simultaneous triggers from the two FSMs.
func (a *Adaptive) reconcile(tM, tL int) int {
	switch {
	case tM == trigNone && tL == trigNone:
		return 0
	case tM == trigNone:
		return tL
	case tL == trigNone:
		return tM
	case tM == tL:
		if a.cfg.CombineDouble {
			a.stats.DoubleSteps++
			return 2 * tM
		}
		return tM
	default:
		// Opposite actions cancel; both FSMs reset to Wait.
		a.stats.Cancellations++
		return 0
	}
}

package baselines

import (
	"fmt"
	"unsafe"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/layout"
)

// PIDLaw is the control law of Wu et al. [23] ("Formal Online Methods
// for Voltage/Frequency Control in Multiple Clock Domain
// Microprocessors"), shared by the fixed-interval PID and its
// adaptive-trigger variant: at each decision it takes the average
// occupancy since the previous one, e = avg − q_ref, and sets
//
//	f = f_base + Kp·e + Ki·Σe + Kd·(e − e_prev)
//
// relative to the frequency at the first decision, with the integral
// term clamped for anti-windup. Both controllers' configs embed it;
// only their triggers differ.
type PIDLaw struct {
	// QRef is the reference queue occupancy the loop regulates to.
	QRef float64
	// Kp, Ki, Kd are the PID gains in MHz per entry of occupancy
	// error (per decision).
	Kp, Ki, Kd float64
	// IntegralClampMHz bounds the integral term (anti-windup).
	IntegralClampMHz float64
	// Range is the operating envelope.
	Range dvfs.Range
}

// defaultPIDLaw is the evaluation's law. Gains follow the
// deadbeat-style tuning of [23]: dominated by the proportional and
// integral terms, conservative derivative.
func defaultPIDLaw() PIDLaw {
	return PIDLaw{
		QRef:             4,
		Kp:               25,
		Ki:               12,
		Kd:               4,
		IntegralClampMHz: 400,
		Range:            dvfs.Default(),
	}
}

// validate checks the gains and the clamp; each config checks its
// Range last, after its trigger's own fields.
func (l PIDLaw) validate() error {
	if l.Kp < 0 || l.Ki < 0 || l.Kd < 0 || (l.Kp == 0 && l.Ki == 0) {
		return fmt.Errorf("baselines: degenerate PID gains (%g,%g,%g)", l.Kp, l.Ki, l.Kd)
	}
	if l.IntegralClampMHz <= 0 {
		return fmt.Errorf("baselines: non-positive integral clamp")
	}
	return nil
}

// pidState is the law's memory from one decision to the next.
type pidState struct {
	prevErr  float64
	integral float64
	have     bool
	base     float64
}

// decide applies l to one decision: avg is the occupancy averaged since
// the previous decision, cur the domain's frequency. It returns the new
// target and whether it differs from cur.
func (s *pidState) decide(l *PIDLaw, avg, cur float64) (float64, bool) {
	e := avg - l.QRef
	if !s.have {
		s.have = true
		s.base = cur
		s.prevErr = e
	}
	s.integral += l.Ki * e
	if s.integral > l.IntegralClampMHz {
		s.integral = l.IntegralClampMHz
	} else if s.integral < -l.IntegralClampMHz {
		s.integral = -l.IntegralClampMHz
	}
	d := e - s.prevErr
	s.prevErr = e

	target := l.Range.Clamp(s.base + l.Kp*e + s.integral + l.Kd*d)
	if target == cur {
		return 0, false
	}
	return target, true
}

// PIDConfig parameterizes the fixed-interval PID controller of [23]:
// the PID law decided every IntervalTicks.
type PIDConfig struct {
	// IntervalTicks is the fixed decision interval in sampling ticks.
	// The paper's closing comparison sweeps this down to short
	// intervals; the default matches the attack/decay interval
	// (2500 ticks = 10 µs ≈ 10K instructions).
	IntervalTicks int
	PIDLaw
}

// DefaultPID returns the evaluation configuration.
func DefaultPID() PIDConfig {
	return PIDConfig{IntervalTicks: 2500, PIDLaw: defaultPIDLaw()}
}

// Validate checks the configuration.
func (c PIDConfig) Validate() error {
	if c.IntervalTicks <= 0 {
		return fmt.Errorf("baselines: non-positive PID interval")
	}
	if err := c.validate(); err != nil {
		return err
	}
	return c.Range.Validate()
}

// PID is the fixed-interval PID controller: at each interval boundary
// it applies the PID law to the interval's average occupancy. Between
// boundaries it does nothing — which is precisely the limitation the
// adaptive scheme addresses.
type PID struct {
	pidController
	// Whole layout.Blocks: each core has its own, written every tick.
	_ [(layout.Block - unsafe.Sizeof(pidController{})%layout.Block) % layout.Block]byte
}

// pidController is PID's state.
type pidController struct {
	cfg PIDConfig

	ticks int
	sum   float64
	pidState
}

// NewPID builds the controller; invalid configs panic.
func NewPID(cfg PIDConfig) *PID {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &PID{pidController: pidController{cfg: cfg}}
}

// Name implements the Controller interface.
func (p *PID) Name() string { return "pid" }

// Reset implements the Controller interface.
func (p *PID) Reset() {
	p.ticks, p.sum = 0, 0
	p.pidState = pidState{}
}

// Observe implements the Controller interface.
func (p *PID) Observe(_ clock.Time, occ int, cur float64) (float64, bool) {
	p.sum += float64(occ)
	p.ticks++
	if p.ticks < p.cfg.IntervalTicks {
		return 0, false
	}
	avg := p.sum / float64(p.ticks)
	p.ticks, p.sum = 0, 0
	return p.decide(&p.cfg.PIDLaw, avg, cur)
}

// PIDHardware models the decision-logic cost of [23]: three gain
// multiplies plus accumulator state per interval — the
// "multipliers/dividers or lookup tables" the paper contrasts with the
// adaptive scheme's book-keeping logic.
func PIDHardware() control.HardwareBudget {
	return control.HardwareBudget{
		Scheme:      "pid",
		Adders:      []int{16, 16, 16}, // error, integral, output sum
		Comparators: []int{16},         // anti-windup clamp
		Counters:    []int{12},         // interval tick counter
		Multipliers: []int{16, 16, 16}, // Kp, Ki, Kd products
		Registers:   16 * 4,            // e_prev, integral, base, coefficients
		FSMStates:   2,
	}
}

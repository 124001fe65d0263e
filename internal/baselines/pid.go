package baselines

import (
	"fmt"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
	"mcddvfs/internal/dvfs"
)

// PIDConfig parameterizes the fixed-interval PID controller of Wu et
// al. [23] ("Formal Online Methods for Voltage/Frequency Control in
// Multiple Clock Domain Microprocessors").
type PIDConfig struct {
	// IntervalTicks is the fixed decision interval in sampling ticks.
	// The paper's closing comparison sweeps this down to short
	// intervals; the default matches the attack/decay interval
	// (2500 ticks = 10 µs ≈ 10K instructions).
	IntervalTicks int
	// QRef is the reference queue occupancy the loop regulates to.
	QRef float64
	// Kp, Ki, Kd are the PID gains in MHz per entry of occupancy
	// error (per interval).
	Kp, Ki, Kd float64
	// IntegralClampMHz bounds the integral term (anti-windup).
	IntegralClampMHz float64
	// Range is the operating envelope.
	Range dvfs.Range
}

// DefaultPID returns the evaluation configuration. Gains follow the
// deadbeat-style tuning of [23]: dominated by the proportional and
// integral terms, conservative derivative.
func DefaultPID() PIDConfig {
	return PIDConfig{
		IntervalTicks:    2500,
		QRef:             4,
		Kp:               25,
		Ki:               12,
		Kd:               4,
		IntegralClampMHz: 400,
		Range:            dvfs.Default(),
	}
}

// Validate checks the configuration.
func (c PIDConfig) Validate() error {
	if c.IntervalTicks <= 0 {
		return fmt.Errorf("baselines: non-positive PID interval")
	}
	if c.Kp < 0 || c.Ki < 0 || c.Kd < 0 || (c.Kp == 0 && c.Ki == 0) {
		return fmt.Errorf("baselines: degenerate PID gains (%g,%g,%g)", c.Kp, c.Ki, c.Kd)
	}
	if c.IntegralClampMHz <= 0 {
		return fmt.Errorf("baselines: non-positive integral clamp")
	}
	return c.Range.Validate()
}

// PID is the fixed-interval PID controller: at each interval boundary
// it computes the average occupancy error e = avg − q_ref and sets
//
//	f = f_base + Kp·e + Ki·Σe + Kd·(e − e_prev)
//
// relative to the frequency at the first interval, with the integral
// term clamped for anti-windup. Between boundaries it does nothing —
// which is precisely the limitation the adaptive scheme addresses.
type PID struct {
	cfg PIDConfig

	ticks int
	sum   float64

	prevErr  float64
	integral float64
	have     bool
	base     float64
}

// NewPID builds the controller; invalid configs panic.
func NewPID(cfg PIDConfig) *PID {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &PID{cfg: cfg}
}

// Name implements the Controller interface.
func (p *PID) Name() string { return "pid" }

// Reset implements the Controller interface.
func (p *PID) Reset() {
	p.ticks, p.sum = 0, 0
	p.prevErr, p.integral, p.have, p.base = 0, 0, false, 0
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

	e := avg - p.cfg.QRef
	if !p.have {
		p.have = true
		p.base = cur
		p.prevErr = e
	}
	p.integral += p.cfg.Ki * e
	if p.integral > p.cfg.IntegralClampMHz {
		p.integral = p.cfg.IntegralClampMHz
	} else if p.integral < -p.cfg.IntegralClampMHz {
		p.integral = -p.cfg.IntegralClampMHz
	}
	d := e - p.prevErr
	p.prevErr = e

	target := p.cfg.Range.Clamp(p.base + p.cfg.Kp*e + p.integral + p.cfg.Kd*d)
	if target == cur {
		return 0, false
	}
	return target, true
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

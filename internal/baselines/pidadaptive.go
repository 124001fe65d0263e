package baselines

import (
	"fmt"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/dvfs"
)

// AdaptivePIDConfig parameterizes the event-triggered PID variant: the
// fixed-interval PID law of [23] driven by the paper's adaptive
// reaction-time trigger instead of a predetermined interval clock.
type AdaptivePIDConfig struct {
	// QRef is the reference queue occupancy the loop regulates to.
	QRef float64
	// Kp, Ki, Kd are the PID gains in MHz per entry of occupancy
	// error (per decision).
	Kp, Ki, Kd float64
	// IntegralClampMHz bounds the integral term (anti-windup).
	IntegralClampMHz float64
	// Range is the operating envelope.
	Range dvfs.Range

	// TM0 is the basic time delay in sampling periods: the credit the
	// level signal must accumulate outside the deviation window before
	// a PID update fires (Section 3's resettable counter).
	TM0 float64
	// DW is the deviation-window half-width in queue entries; samples
	// within QRef±DW reset the delay counter (noise rejection).
	DW float64
	// GainM scales the per-tick counter increment by |signal| (Eq. 5),
	// so severe swings trigger sooner.
	GainM float64
	// MinIntervalTicks floors the spacing between decisions so the
	// occupancy average each update consumes stays meaningful.
	MinIntervalTicks int
}

// DefaultAdaptivePID couples the evaluation's PID gains to the paper's
// level-signal trigger setting (T_m0 = 50 sampling periods, deviation
// window ±1, signal-scaled delay). The 125-tick floor (0.5 µs at
// 250 MHz) is 20x shorter than the fixed 2500-tick interval, so under
// fast workload swings the loop reacts an order of magnitude sooner.
func DefaultAdaptivePID() AdaptivePIDConfig {
	return AdaptivePIDConfig{
		QRef:             4,
		Kp:               25,
		Ki:               12,
		Kd:               4,
		IntegralClampMHz: 400,
		Range:            dvfs.Default(),
		TM0:              50,
		DW:               1,
		GainM:            1,
		MinIntervalTicks: 125,
	}
}

// Validate checks the configuration.
func (c AdaptivePIDConfig) Validate() error {
	if c.Kp < 0 || c.Ki < 0 || c.Kd < 0 || (c.Kp == 0 && c.Ki == 0) {
		return fmt.Errorf("baselines: degenerate PID gains (%g,%g,%g)", c.Kp, c.Ki, c.Kd)
	}
	if c.IntegralClampMHz <= 0 {
		return fmt.Errorf("baselines: non-positive integral clamp")
	}
	if c.TM0 <= 0 {
		return fmt.Errorf("baselines: non-positive basic time delay %g", c.TM0)
	}
	if c.DW < 0 {
		return fmt.Errorf("baselines: negative deviation window %g", c.DW)
	}
	if c.GainM <= 0 {
		return fmt.Errorf("baselines: non-positive delay gain %g", c.GainM)
	}
	if c.MinIntervalTicks <= 0 {
		return fmt.Errorf("baselines: non-positive minimum interval %d", c.MinIntervalTicks)
	}
	return c.Range.Validate()
}

// AdaptivePID computes the same control law as PID — at each decision
// it averages the occupancy since the previous decision and sets
//
//	f = f_base + Kp·e + Ki·Σe + Kd·(e − e_prev),  e = avg − q_ref
//
// — but its *reaction time is adaptive*: instead of interval
// boundaries, a decision fires when the level signal q − q_ref has sat
// outside the deviation window long enough to mature a resettable,
// signal-scaled time-delay counter (the paper's Section-3 trigger).
// Samples back inside the window reset the counter, so transient noise
// never triggers an update, while a large persistent swing is acted on
// within tens of sampling periods rather than at the next boundary.
type AdaptivePID struct {
	cfg AdaptivePIDConfig

	ticks   int
	sum     float64
	counter float64

	prevErr  float64
	integral float64
	have     bool
	base     float64
}

// NewAdaptivePID builds the controller; invalid configs panic.
func NewAdaptivePID(cfg AdaptivePIDConfig) *AdaptivePID {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &AdaptivePID{cfg: cfg}
}

// Name implements the Controller interface.
func (p *AdaptivePID) Name() string { return "pid-adaptive" }

// Reset implements the Controller interface.
func (p *AdaptivePID) Reset() {
	p.ticks, p.sum, p.counter = 0, 0, 0
	p.prevErr, p.integral, p.have, p.base = 0, 0, false, 0
}

// Observe implements the Controller interface.
func (p *AdaptivePID) Observe(_ clock.Time, occ int, cur float64) (float64, bool) {
	p.sum += float64(occ)
	p.ticks++

	// The adaptive trigger: accumulate delay credit while the sample
	// sits outside the deviation window, faster for larger excursions;
	// re-entering the window resets the counter.
	dev := float64(occ) - p.cfg.QRef
	if dev < 0 {
		dev = -dev
	}
	if dev <= p.cfg.DW {
		p.counter = 0
		return 0, false
	}
	p.counter += p.cfg.GainM * dev
	if p.counter < p.cfg.TM0 || p.ticks < p.cfg.MinIntervalTicks {
		return 0, false
	}

	avg := p.sum / float64(p.ticks)
	p.ticks, p.sum, p.counter = 0, 0, 0

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

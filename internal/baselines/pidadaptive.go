package baselines

import (
	"fmt"
	"unsafe"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/layout"
)

// AdaptivePIDConfig parameterizes the event-triggered PID variant: the
// PID law of [23] driven by the paper's adaptive reaction-time trigger
// instead of a predetermined interval clock.
type AdaptivePIDConfig struct {
	PIDLaw

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

// DefaultAdaptivePID couples the evaluation's PID law to the paper's
// level-signal trigger setting (T_m0 = 50 sampling periods, deviation
// window ±1, signal-scaled delay). The 125-tick floor (0.5 µs at
// 250 MHz) is 20x shorter than the fixed 2500-tick interval, so under
// fast workload swings the loop reacts an order of magnitude sooner.
func DefaultAdaptivePID() AdaptivePIDConfig {
	return AdaptivePIDConfig{
		PIDLaw:           defaultPIDLaw(),
		TM0:              50,
		DW:               1,
		GainM:            1,
		MinIntervalTicks: 125,
	}
}

// Validate checks the configuration.
func (c AdaptivePIDConfig) Validate() error {
	if err := c.validate(); err != nil {
		return err
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

// AdaptivePID applies the same PID law as PID to the occupancy averaged
// since its previous decision, but its *reaction time is adaptive*:
// instead of interval boundaries, a decision fires when the level
// signal q − q_ref has sat outside the deviation window long enough to
// mature a resettable, signal-scaled time-delay counter (the paper's
// Section-3 trigger). Samples back inside the window reset the
// counter, so transient noise never triggers an update, while a large
// persistent swing is acted on within tens of sampling periods rather
// than at the next boundary.
type AdaptivePID struct {
	adaptivePIDState
	// Whole layout.Blocks: each core has its own, written every tick.
	_ [(layout.Block - unsafe.Sizeof(adaptivePIDState{})%layout.Block) % layout.Block]byte
}

// adaptivePIDState is AdaptivePID's state.
type adaptivePIDState struct {
	cfg AdaptivePIDConfig

	ticks   int
	sum     float64
	counter float64
	pidState
}

// NewAdaptivePID builds the controller; invalid configs panic.
func NewAdaptivePID(cfg AdaptivePIDConfig) *AdaptivePID {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &AdaptivePID{adaptivePIDState: adaptivePIDState{cfg: cfg}}
}

// Name implements the Controller interface.
func (p *AdaptivePID) Name() string { return "pid-adaptive" }

// Reset implements the Controller interface.
func (p *AdaptivePID) Reset() {
	p.ticks, p.sum, p.counter = 0, 0, 0
	p.pidState = pidState{}
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
	return p.decide(&p.cfg.PIDLaw, avg, cur)
}

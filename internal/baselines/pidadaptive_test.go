package baselines

import (
	"math/rand"
	"testing"

	"mcddvfs/internal/clock"
)

func TestAdaptivePIDDefaultsValid(t *testing.T) {
	if err := DefaultAdaptivePID().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptivePIDValidateCatchesErrors(t *testing.T) {
	bad := []func(*AdaptivePIDConfig){
		func(c *AdaptivePIDConfig) { c.Kp, c.Ki = 0, 0 },
		func(c *AdaptivePIDConfig) { c.Kd = -1 },
		func(c *AdaptivePIDConfig) { c.IntegralClampMHz = 0 },
		func(c *AdaptivePIDConfig) { c.TM0 = 0 },
		func(c *AdaptivePIDConfig) { c.DW = -1 },
		func(c *AdaptivePIDConfig) { c.GainM = 0 },
		func(c *AdaptivePIDConfig) { c.MinIntervalTicks = 0 },
	}
	for i, mut := range bad {
		c := DefaultAdaptivePID()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestAdaptivePIDIgnoresInWindowSamples is the trigger's noise
// rejection: occupancy inside q_ref ± DW never matures the counter, so
// no decision fires no matter how long the run.
func TestAdaptivePIDIgnoresInWindowSamples(t *testing.T) {
	p := NewAdaptivePID(DefaultAdaptivePID()) // QRef 4, DW 1
	if _, changed := driveN(p.Observe, 4, 5000, 700); changed {
		t.Error("in-window occupancy triggered a decision")
	}
	if _, changed := driveN(p.Observe, 5, 5000, 700); changed {
		t.Error("edge-of-window occupancy triggered a decision")
	}
	if p.counter != 0 {
		t.Errorf("delay counter = %g on quiet input, want 0", p.counter)
	}
}

// TestAdaptivePIDRaisesOnBacklog: a persistent excursion above the
// window matures the counter and the PID law raises frequency.
func TestAdaptivePIDRaisesOnBacklog(t *testing.T) {
	p := NewAdaptivePID(DefaultAdaptivePID())
	target, changed := driveN(p.Observe, 12, 2000, 700)
	if !changed {
		t.Fatal("no decision on sustained backlog")
	}
	if target <= 700 {
		t.Errorf("backlog lowered frequency to %.0f", target)
	}
}

// TestAdaptivePIDReactsFasterThanFixedInterval is the scheme's reason
// to exist: under a sudden sustained swing the adaptive trigger
// decides in far fewer ticks than the fixed PID interval.
func TestAdaptivePIDReactsFasterThanFixedInterval(t *testing.T) {
	p := NewAdaptivePID(DefaultAdaptivePID())
	now := clock.Time(0)
	firstDecision := 0
	for i := 1; i <= int(DefaultPID().IntervalTicks); i++ {
		now += 4 * clock.Nanosecond
		if _, ok := p.Observe(now, 12, 700); ok {
			firstDecision = i
			break
		}
	}
	if firstDecision == 0 {
		t.Fatalf("no decision within one fixed PID interval (%d ticks)", DefaultPID().IntervalTicks)
	}
	if limit := int(DefaultPID().IntervalTicks) / 2; firstDecision > limit {
		t.Errorf("first decision at tick %d, want faster than %d (half the fixed interval)", firstDecision, limit)
	}
}

// TestAdaptivePIDResetCountersOnReentry: dipping back inside the
// deviation window must reset the delay counter, so an interrupted
// excursion takes as long as a fresh one (the paper's "deviant event"
// rejection).
func TestAdaptivePIDResetCountersOnReentry(t *testing.T) {
	cfg := DefaultAdaptivePID()
	cfg.MinIntervalTicks = 1
	cfg.TM0 = 100
	cfg.GainM = 1

	// 10 ticks out (credit 10·8=80 < 100), 1 tick in, repeated: the
	// reset must keep the counter from ever reaching TM0.
	p := NewAdaptivePID(cfg)
	now := clock.Time(0)
	for i := 0; i < 50; i++ {
		for j := 0; j < 10; j++ {
			now += 4 * clock.Nanosecond
			if _, ok := p.Observe(now, 12, 700); ok {
				t.Fatalf("decision fired despite window re-entry (cycle %d)", i)
			}
		}
		now += 4 * clock.Nanosecond
		p.Observe(now, 4, 700) // back in window: reset
	}
}

// TestAdaptivePIDIntegralAntiWindup mirrors the fixed-interval PID
// test: a long saturating error must not wind the integral term past
// its clamp.
func TestAdaptivePIDIntegralAntiWindup(t *testing.T) {
	cfg := DefaultAdaptivePID()
	cfg.MinIntervalTicks = 10
	cfg.TM0 = 10
	p := NewAdaptivePID(cfg)
	driveN(p.Observe, 30, 20000, 250)
	if p.integral > cfg.IntegralClampMHz || p.integral < -cfg.IntegralClampMHz {
		t.Errorf("integral %.0f escaped clamp ±%.0f", p.integral, cfg.IntegralClampMHz)
	}
}

// TestPIDLawShared: PID and AdaptivePID decide with one law. With no
// deviation window, a delay below one sample's credit and a floor of
// N ticks, the adaptive trigger fires exactly at the fixed interval's
// boundaries as long as occupancy never equals QRef, so the two
// controllers must make identical decisions tick for tick, across a
// Reset too.
func TestPIDLawShared(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for _, n := range []int{1, 7, 50} {
		for _, qref := range []float64{4, 7} {
			pcfg := DefaultPID()
			pcfg.IntervalTicks, pcfg.QRef = n, qref
			acfg := DefaultAdaptivePID()
			acfg.MinIntervalTicks, acfg.DW, acfg.TM0, acfg.GainM = n, 0, 0.5, 1
			acfg.QRef = qref
			p, a := NewPID(pcfg), NewAdaptivePID(acfg)
			now, cur, decisions := clock.Time(0), 600.0, 0
			for i := 0; i < 4000; i++ {
				if i == 2000 {
					p.Reset()
					a.Reset()
				}
				// Phases of light and heavy load, 300 ticks each,
				// neither of which holds QRef.
				occ := r.Intn(4)
				if (i/300)%2 == 1 {
					occ = 8 + r.Intn(8)
				}
				now += 4 * clock.Nanosecond
				pt, pok := p.Observe(now, occ, cur)
				at, aok := a.Observe(now, occ, cur)
				if pt != at || pok != aok {
					t.Fatalf("N %d, QRef %g, tick %d (occupancy %d at %g MHz): PID (%g, %v), AdaptivePID (%g, %v)",
						n, qref, i, occ, cur, pt, pok, at, aok)
				}
				if pok {
					cur = pt
					decisions++
				}
			}
			if decisions < 10 {
				t.Errorf("N %d, QRef %g: %d frequency changes in 4000 ticks; the draw no longer exercises the law", n, qref, decisions)
			}
		}
	}
}

func TestAdaptivePIDReset(t *testing.T) {
	p := NewAdaptivePID(DefaultAdaptivePID())
	driveN(p.Observe, 12, 2000, 700)
	p.Reset()
	if p.ticks != 0 || p.sum != 0 || p.counter != 0 || p.have || p.integral != 0 {
		t.Errorf("Reset left state behind: %+v", p)
	}
}

func TestAdaptivePIDName(t *testing.T) {
	if NewAdaptivePID(DefaultAdaptivePID()).Name() != "pid-adaptive" {
		t.Error("wrong controller name")
	}
}

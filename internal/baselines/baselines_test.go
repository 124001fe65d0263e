package baselines

import (
	"testing"
	"testing/quick"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
)

// drive feeds n identical occupancy samples and returns the last
// decision.
func driveN(obs func(clock.Time, int, float64) (float64, bool), occ, n int, cur float64) (float64, bool) {
	var target float64
	var changed bool
	now := clock.Time(0)
	for i := 0; i < n; i++ {
		now += 4 * clock.Nanosecond
		if tg, ok := obs(now, occ, cur); ok {
			target, changed = tg, true
		}
	}
	return target, changed
}

func TestAttackDecayDefaultsValid(t *testing.T) {
	if err := DefaultAttackDecay().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAttackDecayValidateCatchesErrors(t *testing.T) {
	bad := []func(*AttackDecayConfig){
		func(c *AttackDecayConfig) { c.IntervalTicks = 0 },
		func(c *AttackDecayConfig) { c.AttackGainMHz = 0 },
		func(c *AttackDecayConfig) { c.DecayRate = 0 },
		func(c *AttackDecayConfig) { c.DecayRate = 1 },
	}
	for i, mut := range bad {
		c := DefaultAttackDecay()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAttackDecayActsOnlyAtIntervalBoundaries(t *testing.T) {
	cfg := DefaultAttackDecay()
	cfg.IntervalTicks = 100
	a := NewAttackDecay(cfg)
	now := clock.Time(0)
	decisions := 0
	for i := 1; i <= 1000; i++ {
		now += 4 * clock.Nanosecond
		occ := 0
		if (i/100)%2 == 0 {
			occ = 12 // swing every interval to force attacks
		}
		if _, ok := a.Observe(now, occ, 700); ok {
			if i%100 != 0 {
				t.Fatalf("decision mid-interval at tick %d", i)
			}
			decisions++
		}
	}
	if decisions == 0 {
		t.Fatal("no decisions over 10 intervals")
	}
}

func TestAttackDecayDecaysWhenQuiet(t *testing.T) {
	cfg := DefaultAttackDecay()
	cfg.IntervalTicks = 10
	a := NewAttackDecay(cfg)
	// Two intervals with an empty queue: first establishes the
	// average, second must decay.
	target, changed := driveN(a.Observe, 0, 20, 800)
	if !changed {
		t.Fatal("no decay action")
	}
	want := 800 * (1 - cfg.DecayRate)
	if target != want {
		t.Errorf("decay target = %g, want %g", target, want)
	}
}

func TestAttackDecayAttacksOnSwing(t *testing.T) {
	cfg := DefaultAttackDecay()
	cfg.IntervalTicks = 10
	a := NewAttackDecay(cfg)
	driveN(a.Observe, 0, 20, 500) // establish a low average (plus one decay)
	target, changed := driveN(a.Observe, 14, 10, 500)
	if !changed {
		t.Fatal("no attack on a 14-entry swing")
	}
	if target <= 500 {
		t.Errorf("attack should raise frequency, got %g", target)
	}
	// Attack is proportional: deviation (14-4) * 60 MHz = +600 MHz.
	if target != cfg.Range.Clamp(500+10*cfg.AttackGainMHz) {
		t.Errorf("attack target = %g, want %g", target, cfg.Range.Clamp(1100))
	}
}

func TestAttackDecayClampsToRange(t *testing.T) {
	cfg := DefaultAttackDecay()
	cfg.IntervalTicks = 5
	a := NewAttackDecay(cfg)
	f := func(occs []uint8) bool {
		now := clock.Time(0)
		cur := 600.0
		for _, o := range occs {
			now += 4 * clock.Nanosecond
			if tg, ok := a.Observe(now, int(o%17), cur); ok {
				if tg < cfg.Range.MinMHz || tg > cfg.Range.MaxMHz {
					return false
				}
				cur = tg
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAttackDecayReset(t *testing.T) {
	cfg := DefaultAttackDecay()
	cfg.IntervalTicks = 10
	a := NewAttackDecay(cfg)
	driveN(a.Observe, 0, 25, 800)
	a.Reset()
	if a.ticks != 0 || a.sum != 0 || a.have {
		t.Error("interval state not reset")
	}
	// After reset, the first interval only establishes the average.
	if _, changed := driveN(a.Observe, 0, 10, 800); changed {
		t.Error("acted on the first post-reset interval")
	}
}

func TestPIDDefaultsValid(t *testing.T) {
	if err := DefaultPID().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPIDValidateCatchesErrors(t *testing.T) {
	bad := []func(*PIDConfig){
		func(c *PIDConfig) { c.IntervalTicks = -1 },
		func(c *PIDConfig) { c.Kp, c.Ki = 0, 0 },
		func(c *PIDConfig) { c.Kd = -1 },
		func(c *PIDConfig) { c.IntegralClampMHz = 0 },
	}
	for i, mut := range bad {
		c := DefaultPID()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPIDRaisesFrequencyOnPositiveError(t *testing.T) {
	cfg := DefaultPID()
	cfg.IntervalTicks = 10
	p := NewPID(cfg)
	target, changed := driveN(p.Observe, int(cfg.QRef)+8, 10, 500)
	if !changed {
		t.Fatal("no action on sustained positive error")
	}
	if target <= 500 {
		t.Errorf("positive error should raise frequency, got %g", target)
	}
}

func TestPIDLowersFrequencyOnEmptyQueue(t *testing.T) {
	cfg := DefaultPID()
	cfg.IntervalTicks = 10
	p := NewPID(cfg)
	target, changed := driveN(p.Observe, 0, 30, 900)
	if !changed {
		t.Fatal("no action on sustained empty queue")
	}
	if target >= 900 {
		t.Errorf("empty queue should lower frequency, got %g", target)
	}
}

func TestPIDIntegralAntiWindup(t *testing.T) {
	cfg := DefaultPID()
	cfg.IntervalTicks = 5
	p := NewPID(cfg)
	// Hammer the integrator with a huge error for many intervals.
	driveN(p.Observe, 16, 500, 1000)
	if p.integral > cfg.IntegralClampMHz || p.integral < -cfg.IntegralClampMHz {
		t.Errorf("integral %g escaped the clamp ±%g", p.integral, cfg.IntegralClampMHz)
	}
	// Now drive it the other way; the clamp means recovery within a
	// bounded number of intervals rather than windup paralysis.
	target, changed := driveN(p.Observe, 0, 200, 1000)
	if !changed || target >= 1000 {
		t.Error("PID failed to recover from windup and scale down")
	}
}

func TestPIDActsOnlyAtBoundaries(t *testing.T) {
	cfg := DefaultPID()
	cfg.IntervalTicks = 50
	p := NewPID(cfg)
	now := clock.Time(0)
	for i := 1; i <= 500; i++ {
		now += 4 * clock.Nanosecond
		occ := 0
		if (i/50)%2 == 0 {
			occ = 14
		}
		if _, ok := p.Observe(now, occ, 600); ok && i%50 != 0 {
			t.Fatalf("PID acted mid-interval at tick %d", i)
		}
	}
}

func TestPIDReset(t *testing.T) {
	cfg := DefaultPID()
	cfg.IntervalTicks = 10
	p := NewPID(cfg)
	driveN(p.Observe, 12, 100, 700)
	p.Reset()
	if p.ticks != 0 || p.integral != 0 || p.have {
		t.Error("reset incomplete")
	}
}

func TestHardwareComparison(t *testing.T) {
	adaptive := control.AdaptiveHardware().Gates()
	pid := PIDHardware().Gates()
	ad := AttackDecayHardware().Gates()
	// Section 3.1: the adaptive decision logic must be much smaller
	// than either fixed-interval scheme (which need interval arithmetic
	// and multipliers).
	if adaptive*2 > pid {
		t.Errorf("adaptive (%d gates) should be well under half of PID (%d gates)", adaptive, pid)
	}
	if adaptive >= ad {
		t.Errorf("adaptive (%d gates) should undercut attack/decay (%d gates)", adaptive, ad)
	}
	if pid <= ad {
		t.Errorf("PID (%d) should cost more than attack/decay (%d)", pid, ad)
	}
}

func TestControllerNames(t *testing.T) {
	if NewAttackDecay(DefaultAttackDecay()).Name() != "attack-decay" {
		t.Error("bad attack/decay name")
	}
	if NewPID(DefaultPID()).Name() != "pid" {
		t.Error("bad PID name")
	}
}

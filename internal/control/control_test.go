package control

import (
	"testing"
	"testing/quick"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/isa"
)

// tick drives the controller with a constant sampling period of 4 ns.
type tick struct {
	now clock.Time
	c   *Adaptive
}

func (tk *tick) observe(occ int, cur float64) (float64, bool) {
	tk.now += 4 * clock.Nanosecond
	return tk.c.Observe(tk.now, occ, cur)
}

func newTick(cfg Config) *tick { return &tick{c: NewAdaptive(cfg)} }

// fastCfg is a small-delay configuration for focused unit tests.
func fastCfg() Config {
	cfg := DefaultConfig(isa.DomainInt)
	cfg.TM0 = 5
	cfg.TL0 = 3
	cfg.SwitchTime = 0
	cfg.SignalScaledDelay = false
	cfg.ScaleDownCaution = false
	return cfg
}

func TestDefaultConfigsMatchPaper(t *testing.T) {
	ci := DefaultConfig(isa.DomainInt)
	if ci.QRef != 7 {
		t.Errorf("INT QRef = %d, want 7", ci.QRef)
	}
	for _, d := range []isa.ExecDomain{isa.DomainFP, isa.DomainLS} {
		if c := DefaultConfig(d); c.QRef != 4 {
			t.Errorf("%v QRef = %d, want 4", d, c.QRef)
		}
	}
	if ci.TM0 != 50 || ci.TL0 != 8 {
		t.Errorf("delays = %g/%g, want 50/8", ci.TM0, ci.TL0)
	}
	if ci.DWLevel != 1 || ci.DWSlope != 0 {
		t.Errorf("windows = %d/%d, want 1/0", ci.DWLevel, ci.DWSlope)
	}
	// Remark 3: T_m0 should be 2-8x T_l0.
	ratio := ci.TM0 / ci.TL0
	if ratio < 2 || ratio > 8 {
		t.Errorf("TM0/TL0 = %g outside the Remark-3 band [2,8]", ratio)
	}
	if err := ci.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		c := DefaultConfig(isa.DomainInt)
		mut(&c)
		return c
	}
	bad := []Config{
		mk(func(c *Config) { c.QRef = -1 }),
		mk(func(c *Config) { c.DWLevel = -1 }),
		mk(func(c *Config) { c.TM0 = 0 }),
		mk(func(c *Config) { c.TL0 = -3 }),
		mk(func(c *Config) { c.GainM = 0 }),
		mk(func(c *Config) { c.StepMHz = 0 }),
		mk(func(c *Config) { c.SwitchTime = -1 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestLevelSignalTriggersUpAfterDelay(t *testing.T) {
	cfg := fastCfg()
	tk := newTick(cfg)
	cur := 500.0
	var fired int
	for i := 0; i < 20; i++ {
		// Occupancy stuck well above QRef+DW -> count up.
		if target, ok := tk.observe(cfg.QRef+5, cur); ok {
			fired = i + 1
			if target <= cur {
				t.Fatalf("trigger lowered frequency: %g -> %g", cur, target)
			}
			break
		}
	}
	// TL0=3 fires first via the slope FSM? Slope signal is 0 for a
	// constant occupancy, so the level FSM (TM0=5) fires on tick 5.
	if fired != 5 {
		t.Errorf("fired at tick %d, want 5 (TM0)", fired)
	}
}

func TestLevelSignalTriggersDownOnEmptyQueue(t *testing.T) {
	cfg := fastCfg()
	tk := newTick(cfg)
	cur := 500.0
	for i := 0; i < 4; i++ {
		if _, ok := tk.observe(0, cur); ok {
			t.Fatalf("fired early at tick %d", i+1)
		}
	}
	target, ok := tk.observe(0, cur)
	if !ok {
		t.Fatal("did not fire at TM0")
	}
	if target >= cur {
		t.Errorf("empty queue should lower frequency: %g -> %g", cur, target)
	}
}

func TestDeviationWindowSuppressesSmallErrors(t *testing.T) {
	cfg := fastCfg()
	tk := newTick(cfg)
	// |q - qref| <= DW (=1) must never trigger.
	for i := 0; i < 200; i++ {
		occ := cfg.QRef
		if i%2 == 0 {
			occ++
		}
		if _, ok := tk.observe(occ, 500); ok {
			t.Fatal("triggered inside deviation window")
		}
	}
}

func TestNoiseResetsCounter(t *testing.T) {
	cfg := fastCfg()
	cfg.TL0 = 100 // keep the slope FSM quiet
	tk := newTick(cfg)
	// Pattern: 4 ticks outside the window, then 1 inside, repeatedly.
	// The counter (threshold 5) must never fire.
	for i := 0; i < 100; i++ {
		occ := cfg.QRef + 5
		if i%5 == 4 {
			occ = cfg.QRef
		}
		if _, ok := tk.observe(occ, 500); ok {
			t.Fatalf("noise pattern triggered an action at tick %d", i)
		}
	}
}

func TestSlopeSignalCatchesFastSwing(t *testing.T) {
	cfg := fastCfg()
	cfg.TM0 = 1000 // keep the level FSM quiet
	tk := newTick(cfg)
	occ := 0
	fired := 0
	for i := 0; i < 10; i++ {
		occ += 2 // rising fast: slope +2 each tick, level still below ref
		if target, ok := tk.observe(occ, 500); ok {
			fired = i + 1
			if target <= 500 {
				t.Fatalf("rising queue must raise frequency, got %g", target)
			}
			break
		}
	}
	// The first sample only establishes q_{i-1}, so the slope FSM
	// fires TL0 ticks later: tick 4.
	if fired != 4 {
		t.Errorf("slope FSM fired at tick %d, want 4", fired)
	}
}

func TestOppositeTriggersCancel(t *testing.T) {
	cfg := fastCfg()
	// Thresholds chosen so both FSMs cross on the same tick given the
	// priming sample below: the level FSM counts from tick 1, the
	// slope FSM from tick 2 (the first sample only sets q_{i-1}).
	cfg.TM0 = 4
	cfg.TL0 = 3
	cancelled := func() *tick {
		tk := newTick(cfg)
		// Occupancy far below qref (level wants DOWN) but rising steeply
		// (slope wants UP).
		// Occupancies 2,3,4,5 against QRef 7: the level signal stays
		// below -DW throughout while the slope is +1 every tick.
		if _, ok := tk.observe(2, 500); ok { // prime: level tick 1
			t.Fatal("fired on priming sample")
		}
		occ := 2
		for i := 0; i < 3; i++ {
			occ++
			if _, ok := tk.observe(occ, 500); ok {
				t.Fatal("simultaneous opposite triggers acted instead of cancelling")
			}
		}
		return tk
	}
	// firstFire drives occupancies after the cancellation and returns
	// the tick, counted from it, of the first action and its target.
	firstFire := func(tk *tick, occ func(i int) int) (int, float64) {
		for i := 1; i <= 10; i++ {
			if target, ok := tk.observe(occ(i), 500); ok {
				return i, target
			}
		}
		return -1, 0
	}
	// Both FSMs restart from Wait at the cancellation: each fires a full
	// delay later, not on the next tick. Occupancy held at 5 keeps only
	// the level signal outside its window...
	if i, target := firstFire(cancelled(), func(int) int { return 5 }); i != 4 || target != cfg.Range.Step(500, -1) {
		t.Errorf("level FSM after cancellation fired at tick %d with %g, want tick 4 (TM0) with %g", i, target, cfg.Range.Step(500, -1))
	}
	// ...and occupancy still rising from 5 keeps only the slope signal
	// outside its window.
	if i, target := firstFire(cancelled(), func(i int) int { return 5 + i }); i != 3 || target != cfg.Range.Step(500, 1) {
		t.Errorf("slope FSM after cancellation fired at tick %d with %g, want tick 3 (TL0) with %g", i, target, cfg.Range.Step(500, 1))
	}
}

func TestAgreeingTriggersDouble(t *testing.T) {
	cfg := fastCfg()
	// Align the two FSMs: level counts from the priming sample, slope
	// from one tick later.
	cfg.TM0 = 4
	cfg.TL0 = 3
	drive := func(cfg Config) (float64, bool) {
		tk := newTick(cfg)
		// Occupancy far above qref AND rising: both trigger UP together.
		occ := cfg.QRef + 10
		target, ok := tk.observe(occ, 500) // prime
		for i := 0; i < 3 && !ok; i++ {
			occ += 2
			target, ok = tk.observe(occ, 500)
		}
		return target, ok
	}
	target, ok := drive(cfg)
	if !ok {
		t.Fatal("no trigger")
	}
	if want := cfg.Range.Step(500, 2); target != want {
		t.Errorf("double-step target = %g, want %g", target, want)
	}
	// With CombineDouble off, the same scenario steps once.
	cfg2 := cfg
	cfg2.CombineDouble = false
	if target, ok := drive(cfg2); !ok || target != cfg.Range.Step(500, 1) {
		t.Errorf("single-step target = %g, want %g", target, cfg.Range.Step(500, 1))
	}
}

func TestSwitchingHoldBlocksNewActions(t *testing.T) {
	cfg := fastCfg()
	cfg.SwitchTime = 100 * clock.Nanosecond // 25 sampling ticks
	tk := newTick(cfg)
	occ := cfg.QRef + 5
	fired := 0
	for i := 0; i < 60; i++ {
		if _, ok := tk.observe(occ, 500); ok {
			fired++
		}
	}
	// Without the hold we'd fire every TM0=5 ticks (12 times); the
	// 25-tick Act residency plus the 5-tick count allows ~2x fewer.
	if fired == 0 || fired > 3 {
		t.Errorf("fired %d times in 60 ticks with a 25-tick hold, want 1-3", fired)
	}
}

func TestSignalScaledDelayActsFaster(t *testing.T) {
	base := fastCfg()
	base.TM0 = 50
	run := func(cfg Config, occ int) int {
		tk := newTick(cfg)
		for i := 1; i <= 200; i++ {
			if _, ok := tk.observe(occ, 500); ok {
				return i
			}
		}
		return -1
	}
	cfg := base
	cfg.SignalScaledDelay = true
	fast := run(cfg, base.QRef+10) // |signal| = 10 -> 10x faster counting
	slow := run(base, base.QRef+10)
	if fast == -1 || slow == -1 {
		t.Fatal("controller never fired")
	}
	if fast*5 > slow {
		t.Errorf("signal scaling too weak: scaled=%d ticks unscaled=%d", fast, slow)
	}
	// And a larger swing must fire sooner than a small one.
	small := run(cfg, base.QRef+2)
	if fast >= small {
		t.Errorf("10-over swing (%d) not faster than 2-over swing (%d)", fast, small)
	}
}

func TestScaleDownCautionSlowsLowFrequencyDowSteps(t *testing.T) {
	cfg := fastCfg()
	cfg.TM0 = 20
	cfg.ScaleDownCaution = true
	cfg.SignalScaledDelay = false
	run := func(cur float64) int {
		tk := newTick(cfg)
		for i := 1; i <= 2000; i++ {
			if _, ok := tk.observe(0, cur); ok {
				return i
			}
		}
		return -1
	}
	atMax := run(1000) // f̃=1: no slowdown
	atMin := run(250)  // f̃=0.25: 16x slower counting
	if atMax == -1 || atMin == -1 {
		t.Fatal("controller never fired")
	}
	if atMin < atMax*8 {
		t.Errorf("down-step at fmin (%d ticks) should be ≫ slower than at fmax (%d)", atMin, atMax)
	}
}

func TestResetClearsState(t *testing.T) {
	cfg := fastCfg()
	tk := newTick(cfg)
	for i := 0; i < 4; i++ {
		tk.observe(cfg.QRef+5, 500)
	}
	tk.c.Reset()
	// After reset the counter must start over: 4 more ticks, no fire.
	for i := 0; i < 4; i++ {
		if _, ok := tk.observe(cfg.QRef+5, 500); ok {
			t.Fatal("fired before TM0 after Reset")
		}
	}
	if _, ok := tk.observe(cfg.QRef+5, 500); !ok {
		t.Error("did not fire at TM0 after Reset")
	}
}

func TestTargetsStayInRange(t *testing.T) {
	cfg := fastCfg()
	tk := newTick(cfg)
	f := func(occRaw uint8, curRaw uint16) bool {
		occ := int(occRaw % 40)
		cur := 250 + float64(curRaw%751)
		target, ok := tk.observe(occ, cur)
		if !ok {
			return true
		}
		return target >= cfg.Range.MinMHz && target <= cfg.Range.MaxMHz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestName(t *testing.T) {
	if NewAdaptive(fastCfg()).Name() != "adaptive" {
		t.Error("wrong scheme name")
	}
}

func TestHardwareBudget(t *testing.T) {
	hb := AdaptiveHardware()
	g := hb.Gates()
	if g <= 0 {
		t.Fatal("non-positive gate estimate")
	}
	// The paper's point: the decision logic is tiny (book-keeping
	// scale, i.e. well under ~2000 gates).
	if g > 2000 {
		t.Errorf("adaptive decision logic estimated at %d gates; expected book-keeping scale", g)
	}
	if hb.Scheme != "adaptive" {
		t.Error("wrong scheme label")
	}
}

func TestModelSystemMatchesCalibration(t *testing.T) {
	cfg := DefaultConfig(isa.DomainInt)
	sys := cfg.ModelSystem(0.3, 0.7, 4)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's default (50/8 delays, unit gains) must be stable and
	// near the typical Kl ~ 0.5 operating point at f_max.
	if !sys.Stable(1) {
		t.Error("default configuration analytically unstable")
	}
	if kl := sys.Kl(1); kl < 0.3 || kl > 0.8 {
		t.Errorf("Kl(fmax) = %g, want near the paper's typical 0.5", kl)
	}
}

func TestRemarkComplianceFollowsDelayRatio(t *testing.T) {
	good := DefaultConfig(isa.DomainInt) // 50/8: ratio 6.25, in band
	if !good.RemarkCompliant(1) {
		t.Errorf("paper default not Remark-3 compliant (xi=%g)",
			good.ModelSystem(0.3, 0.7, 4).DampingRatio(1))
	}
	bad := good
	bad.TL0 = bad.TM0 * 4 // inverted ratio: heavily underdamped
	if bad.RemarkCompliant(1) {
		t.Error("inverted delay ratio should violate Remark 3")
	}
}

func TestProportionalStepScalesWithExcursion(t *testing.T) {
	cfg := fastCfg()
	cfg.ProportionalStep = true
	cfg.MaxPropSteps = 4
	run := func(occ int) float64 {
		tk := newTick(cfg)
		for i := 0; i < 20; i++ {
			if target, ok := tk.observe(occ, 500); ok {
				return target
			}
		}
		t.Fatalf("no trigger for occ %d", occ)
		return 0
	}
	small := run(cfg.QRef + 3)  // |sM|=3 -> 1 step
	large := run(cfg.QRef + 20) // |sM|=20 -> 20/4=5, capped at 4 steps
	if large <= small {
		t.Errorf("large excursion target %g not above small %g", large, small)
	}
	if want := cfg.Range.Step(500, 4); large != want {
		t.Errorf("capped proportional target = %g, want %g", large, want)
	}
	if want := cfg.Range.Step(500, 1); small != want {
		t.Errorf("small proportional target = %g, want %g", small, want)
	}
}

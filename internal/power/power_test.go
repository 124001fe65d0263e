package power

import (
	"math"
	"testing"
	"testing/quick"

	"mcddvfs/internal/clock"
)

func TestDefaultModelsValidateAndSumTo50W(t *testing.T) {
	models := DefaultModels()
	if len(models) != 4 {
		t.Fatalf("expected 4 domains, got %d", len(models))
	}
	totalW := 0.0
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Error(err)
		}
		totalW += m.SwitchedCapF * 1.2 * 1.2 * 1e9
	}
	if math.Abs(totalW-50) > 1e-6 {
		t.Errorf("full-activity dynamic power = %g W, want 50", totalW)
	}
}

func TestCycleEnergyScalesWithVSquared(t *testing.T) {
	m := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, GatedFraction: 0, LeakagePerV: 0})
	m.Cycle(1.2, 1)
	e12 := m.DynamicJ()
	m2 := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, GatedFraction: 0, LeakagePerV: 0})
	m2.Cycle(0.6, 1)
	e06 := m2.DynamicJ()
	if math.Abs(e12/e06-4) > 1e-9 {
		t.Errorf("E(1.2V)/E(0.6V) = %g, want 4 (V^2 scaling)", e12/e06)
	}
}

func TestClockGatingFloor(t *testing.T) {
	m := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, GatedFraction: 0.1})
	m.Cycle(1.0, 0) // fully idle
	idle := m.DynamicJ()
	m2 := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, GatedFraction: 0.1})
	m2.Cycle(1.0, 1) // fully busy
	busy := m2.DynamicJ()
	if math.Abs(idle/busy-0.1) > 1e-9 {
		t.Errorf("idle/busy = %g, want 0.1 (gated fraction)", idle/busy)
	}
}

func TestActivityClamped(t *testing.T) {
	m := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, GatedFraction: 0})
	m.Cycle(1.0, 2.5)
	over := m.DynamicJ()
	m2 := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, GatedFraction: 0})
	m2.Cycle(1.0, 1)
	if over != m2.DynamicJ() {
		t.Error("activity above 1 not clamped")
	}
	m3 := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, GatedFraction: 0})
	m3.Cycle(1.0, -3)
	if m3.DynamicJ() != 0 {
		t.Error("negative activity not clamped to 0")
	}
}

func TestLeakIntegratesOverTime(t *testing.T) {
	m := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, LeakagePerV: 2}) // 2 W/V
	m.Leak(clock.Millisecond, 1.0)                                            // 2 W for 1 ms
	want := 2e-3
	if math.Abs(m.LeakageJ()-want) > 1e-12 {
		t.Errorf("leakage = %g J, want %g", m.LeakageJ(), want)
	}
	// Second call integrates only the delta.
	m.Leak(2*clock.Millisecond, 0.5)
	want += 1e-3
	if math.Abs(m.LeakageJ()-want) > 1e-12 {
		t.Errorf("leakage = %g J, want %g", m.LeakageJ(), want)
	}
	// Non-monotonic timestamps must not add energy.
	before := m.LeakageJ()
	m.Leak(clock.Millisecond, 1.0)
	if m.LeakageJ() != before {
		t.Error("backwards Leak added energy")
	}
}

func TestEnergyNeverNegative(t *testing.T) {
	m := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, GatedFraction: 0.1, LeakagePerV: 1})
	f := func(vRaw uint8, act float64, dt uint32) bool {
		v := 0.65 + float64(vRaw%56)/100
		m.Cycle(v, act)
		m.Leak(m.lastLeak+clock.Time(dt), v)
		return m.TotalJ() >= 0 && m.DynamicJ() >= 0 && m.LeakageJ() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMeanActivityAndCycles(t *testing.T) {
	m := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9})
	m.Cycle(1, 0.2)
	m.Cycle(1, 0.8)
	if m.cycles != 2 {
		t.Errorf("cycles = %d, want 2", m.cycles)
	}
	if math.Abs(m.MeanActivity()-0.5) > 1e-12 {
		t.Errorf("mean activity = %g, want 0.5", m.MeanActivity())
	}
}

func TestMetricsEDPAndIPS(t *testing.T) {
	m := Metrics{EnergyJ: 2, ExecTime: clock.Second / 2, Instructions: 1000}
	if m.EDP() != 1 {
		t.Errorf("EDP = %g, want 1", m.EDP())
	}
	if m.IPS() != 2000 {
		t.Errorf("IPS = %g, want 2000", m.IPS())
	}
	if (Metrics{}).IPS() != 0 {
		t.Error("zero metrics should have 0 IPS")
	}
}

func TestCompare(t *testing.T) {
	base := Metrics{EnergyJ: 10, ExecTime: clock.Second}
	run := Metrics{EnergyJ: 9, ExecTime: clock.Second + clock.Second/100*3}
	c := Compare(base, run)
	if math.Abs(c.EnergySaving-0.10) > 1e-9 {
		t.Errorf("energy saving = %g, want 0.10", c.EnergySaving)
	}
	if math.Abs(c.PerfDegradation-0.03) > 1e-9 {
		t.Errorf("perf degradation = %g, want 0.03", c.PerfDegradation)
	}
	wantEDP := 1 - (9*1.03)/(10*1)
	if math.Abs(c.EDPImprovement-wantEDP) > 1e-9 {
		t.Errorf("EDP improvement = %g, want %g", c.EDPImprovement, wantEDP)
	}
	// Degenerate baseline doesn't divide by zero.
	_ = Compare(Metrics{}, run)
}

func TestAddJ(t *testing.T) {
	m := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9})
	m.AddJ(0.5)
	if m.TotalJ() != 0.5 {
		t.Errorf("TotalJ = %g, want 0.5", m.TotalJ())
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	bad := []DomainModel{
		{Name: "a", SwitchedCapF: 0},
		{Name: "b", SwitchedCapF: 1e-9, GatedFraction: -0.1},
		{Name: "c", SwitchedCapF: 1e-9, GatedFraction: 1.1},
		{Name: "d", SwitchedCapF: 1e-9, LeakagePerV: -1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %q: expected validation error", m.Name)
		}
	}
}

func TestNewMeterPanicsOnInvalidModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMeter(DomainModel{Name: "bad"})
}

func TestCycleDeepGated(t *testing.T) {
	m := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, GatedFraction: 0.1})
	m.CycleDeepGated(1.0, 0.02)
	deep := m.DynamicJ()
	r := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9, GatedFraction: 0.1})
	r.Cycle(1.0, 0) // regular gating floor
	regular := r.DynamicJ()
	if math.Abs(deep/regular-0.2) > 1e-9 { // 0.02 / 0.10
		t.Errorf("deep/regular = %g, want 0.2", deep/regular)
	}
	// Clamping.
	m2 := NewMeter(DomainModel{Name: "x", SwitchedCapF: 1e-9})
	m2.CycleDeepGated(1.0, -1)
	if m2.DynamicJ() != 0 {
		t.Error("negative factor not clamped")
	}
	m2.CycleDeepGated(1.0, 5)
	if m2.DynamicJ() != 1e-9 {
		t.Errorf("over-unity factor not clamped: %g", m2.DynamicJ())
	}
	if m2.cycles != 2 {
		t.Errorf("cycles = %d, want 2", m2.cycles)
	}
}

// TestIdleChargeBitIdenticalToSlowPath is the fast path's contract:
// ticking an IdleCharge must accumulate the exact float64 stream of the
// per-cycle slow path, bit for bit, across arbitrary models, voltages,
// and (jittered, irregular) edge times.
func TestIdleChargeBitIdenticalToSlowPath(t *testing.T) {
	f := func(capPJ, gated, leak, v uint16, deep bool, steps []uint8) bool {
		model := DomainModel{
			Name:          "x",
			SwitchedCapF:  (1 + float64(capPJ)) * 1e-12,
			GatedFraction: float64(gated) / 65535,
			LeakagePerV:   float64(leak) * 1e-3,
		}
		volt := 0.6 + float64(v)/65535
		slow := NewMeter(model)
		fast := NewMeter(model)
		charge := fast.IdleCharge(volt)
		factor := 0.02
		if deep {
			charge = fast.DeepIdleCharge(volt, factor)
		}
		now := clock.Time(0)
		for _, s := range steps {
			now += clock.Time(s) * clock.Picosecond // jittered spacing; 0 steps exercise the now<=lastLeak guard
			if deep {
				slow.CycleDeepGated(volt, factor)
			} else {
				slow.Cycle(volt, 0)
			}
			slow.Leak(now, volt)
			charge.Tick(now)
		}
		return math.Float64bits(slow.DynamicJ()) == math.Float64bits(fast.DynamicJ()) &&
			math.Float64bits(slow.LeakageJ()) == math.Float64bits(fast.LeakageJ()) &&
			slow.cycles == fast.cycles &&
			math.Float64bits(slow.MeanActivity()) == math.Float64bits(fast.MeanActivity())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

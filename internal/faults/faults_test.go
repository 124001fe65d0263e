package faults

import (
	"testing"

	"mcddvfs/internal/clock"
)

func TestZeroConfigDisabled(t *testing.T) {
	var cfg Config
	if cfg.Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero Config does not validate: %v", err)
	}
	if in := NewInjector(cfg, clock.Nanosecond); in != nil {
		t.Fatal("NewInjector built an injector for a zero Config")
	}
	// A nil injector must hand out nil wrappers so the simulator keeps
	// its pre-fault code paths.
	var in *Injector
	if s := in.Sensor(0); s != nil {
		t.Error("nil injector returned a sensor")
	}
	if a := in.Actuator(0); a != nil {
		t.Error("nil injector returned an actuator")
	}

	// Seed alone does not enable injection: only actual fault knobs do.
	if (Config{Seed: 42}).Enabled() {
		t.Error("seed-only Config reports Enabled")
	}
}

func TestIntensityProfile(t *testing.T) {
	if got := Intensity(0, 7); got != (Config{}) {
		t.Errorf("Intensity(0) = %+v, want zero Config", got)
	}
	if got := Intensity(-3, 7); got != (Config{}) {
		t.Errorf("Intensity(-3) = %+v, want zero Config", got)
	}
	// Levels above 1 clamp to the level-1 profile.
	if Intensity(5, 7) != Intensity(1, 7) {
		t.Error("Intensity does not clamp levels above 1")
	}
	for _, lv := range []float64{0.1, 0.25, 0.5, 0.75, 1} {
		cfg := Intensity(lv, 7)
		if !cfg.Enabled() {
			t.Errorf("Intensity(%g) not enabled", lv)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Intensity(%g) invalid: %v", lv, err)
		}
		if cfg.Seed != 7 {
			t.Errorf("Intensity(%g) lost the seed", lv)
		}
		if cfg.Actuator.StuckRate != 0 {
			t.Errorf("Intensity(%g) enables stuck-at faults", lv)
		}
	}
}

func TestValidateRejectsBadKnobs(t *testing.T) {
	bad := []Config{
		{Sensor: SensorConfig{DropRate: 1.5}},
		{Sensor: SensorConfig{CorruptRate: -0.1}},
		{Sensor: SensorConfig{NoiseStdDev: -1}},
		{Sensor: SensorConfig{QuantizeStep: -2}},
		{Sensor: SensorConfig{CorruptMax: -1}},
		{Actuator: ActuatorConfig{MissRate: 2}},
		{Actuator: ActuatorConfig{StuckRate: -0.5}},
		{Actuator: ActuatorConfig{DelayTicks: -1}},
		{Actuator: ActuatorConfig{RelockJitterNS: -10}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, cfg)
		}
	}
}

// TestSensorDeterministicPerSlot asserts the same (seed, slot) replays
// the identical reading sequence while distinct slots draw independent
// streams.
func TestSensorDeterministicPerSlot(t *testing.T) {
	cfg := Intensity(1, 11)
	mk := func(slot int) *Sensor { return NewInjector(cfg, clock.Nanosecond).Sensor(slot) }

	a, b, other := mk(0), mk(0), mk(1)
	same, diff := true, false
	for i := 0; i < 200; i++ {
		occ := i % 17
		ra, rb, ro := a.Read(occ), b.Read(occ), other.Read(occ)
		if ra != rb {
			same = false
		}
		if ra != ro {
			diff = true
		}
	}
	if !same {
		t.Error("same slot and seed produced different reading sequences")
	}
	if !diff {
		t.Error("distinct slots produced identical fault streams")
	}
}

func TestSensorNeverNegative(t *testing.T) {
	s := NewInjector(Config{Seed: 3, Sensor: SensorConfig{NoiseStdDev: 50}}, clock.Nanosecond).Sensor(0)
	for i := 0; i < 1000; i++ {
		if got := s.Read(1); got < 0 {
			t.Fatalf("reading %d is negative", got)
		}
	}
}

func TestSensorDropHoldsStaleReading(t *testing.T) {
	// DropRate 1: nothing is ever delivered. The first read has no
	// stale value to fall back on and reads empty; every later read
	// repeats it.
	s := NewInjector(Config{Sensor: SensorConfig{DropRate: 1}}, clock.Nanosecond).Sensor(0)
	for i, occ := range []int{9, 23, 4, 17} {
		if got := s.Read(occ); got != 0 {
			t.Fatalf("read %d: got %d, want stale 0", i, got)
		}
	}
}

func TestSensorQuantizes(t *testing.T) {
	s := NewInjector(Config{Sensor: SensorConfig{QuantizeStep: 8}}, clock.Nanosecond).Sensor(0)
	for occ := 0; occ < 40; occ++ {
		if got := s.Read(occ); got != (occ/8)*8 {
			t.Fatalf("Read(%d) = %d, want %d", occ, got, (occ/8)*8)
		}
	}
}

func TestActuatorDelaysCommand(t *testing.T) {
	period := 10 * clock.Nanosecond
	a := NewInjector(Config{Actuator: ActuatorConfig{DelayTicks: 2}}, period).Actuator(0)

	if _, ch := a.Filter(0, 1000, true); ch {
		t.Fatal("delayed command applied immediately")
	}
	if _, ch := a.Filter(period, 0, false); ch {
		t.Fatal("command released one tick early")
	}
	mhz, ch := a.Filter(2*period, 0, false)
	if !ch || mhz != 1000 {
		t.Fatalf("due command not released: (%g, %v)", mhz, ch)
	}
	if _, ch := a.Filter(3*period, 0, false); ch {
		t.Error("released command delivered twice")
	}
}

func TestActuatorLatchOverwrites(t *testing.T) {
	period := 10 * clock.Nanosecond
	a := NewInjector(Config{Actuator: ActuatorConfig{DelayTicks: 1}}, period).Actuator(0)

	a.Filter(0, 1000, true)      // pending, due at 10ns
	a.Filter(period, 1500, true) // newer command overwrites, due at 20ns
	if mhz, ch := a.Filter(2*period, 0, false); !ch || mhz != 1500 {
		t.Fatalf("latch released (%g, %v), want the newer 1500", mhz, ch)
	}
	if mhz, ch := a.Filter(3*period, 0, false); ch {
		t.Errorf("superseded command delivered later (%g)", mhz)
	}
}

func TestActuatorMissesEveryCommand(t *testing.T) {
	a := NewInjector(Config{Actuator: ActuatorConfig{MissRate: 1}}, clock.Nanosecond).Actuator(0)
	for i := 0; i < 10; i++ {
		if _, ch := a.Filter(clock.Time(i), 900, true); ch {
			t.Fatal("command got through a MissRate-1 actuator")
		}
	}
}

func TestActuatorSticks(t *testing.T) {
	a := NewInjector(Config{Actuator: ActuatorConfig{StuckRate: 1}}, clock.Nanosecond).Actuator(0)
	if _, ch := a.Filter(0, 800, true); ch {
		t.Fatal("command applied by a regulator that should latch")
	}
	if !a.stuck {
		t.Fatal("regulator did not latch")
	}
	for i := 1; i < 5; i++ {
		if _, ch := a.Filter(clock.Time(i), 700, true); ch {
			t.Fatal("stuck regulator applied a command")
		}
	}
}

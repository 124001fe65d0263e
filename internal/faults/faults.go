// Package faults is a deterministic, seeded fault-injection layer for
// the DVFS control loop. The paper's robustness story (Section 3's
// "reject deviant events", the Section-4 stability analysis) is argued
// over *perfect* queue-occupancy readings and instantaneous, lossless
// actuation; this package stresses that story the way control-loop work
// such as Chen/Wardi/Yalamanchili and Xia et al. does, by corrupting
// the two narrow interfaces the controller actually touches:
//
//   - the sensor path: what the controller reads as queue occupancy
//     (additive Gaussian noise, coarse quantization, dropped/stale
//     samples, transient counter corruption);
//   - the actuator path: what happens to a commanded frequency change
//     (deferred actuation, silently missed steps, a regulator that
//     latches stuck at the current operating point, PLL relock jitter
//     on top of the Table-1 transition cost).
//
// Everything is driven by per-slot RNGs derived from one seed, so a
// faulty run replays byte-identically. The zero value of Config
// disables injection entirely: the simulator takes the exact pre-fault
// code paths and produces bit-identical outputs.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"mcddvfs/internal/clock"
)

// SensorConfig corrupts the queue-occupancy readings a controller sees.
// The true occupancy (and everything downstream of the queues) is
// untouched: sensing faults are observation faults.
type SensorConfig struct {
	// NoiseStdDev is the standard deviation, in queue entries, of
	// zero-mean Gaussian noise added to every reading.
	NoiseStdDev float64
	// QuantizeStep coarsens readings to multiples of this many entries
	// (0 or 1 = exact). Models a cheap saturating counter tap.
	QuantizeStep int
	// DropRate is the probability a sample is lost; the controller then
	// sees the last delivered (stale) reading.
	DropRate float64
	// CorruptRate is the probability of a transient counter corruption:
	// the reading is replaced by a uniform value in [0, CorruptMax].
	CorruptRate float64
	// CorruptMax bounds corrupted readings (default 64, about the
	// largest Table-1 queue).
	CorruptMax int
}

// ActuatorConfig corrupts the path from a controller's decision to the
// clock domain's target frequency.
type ActuatorConfig struct {
	// DelayTicks defers every command by this many sampling ticks
	// before it reaches the domain (actuation latency). A newer command
	// overwrites a still-pending one, as in a single-entry regulator
	// command latch.
	DelayTicks int
	// MissRate is the probability a command is silently dropped
	// (missed step).
	MissRate float64
	// StuckRate is the per-command probability that the regulator
	// latches at the current operating point and ignores every later
	// command for the rest of the run (stuck-at-frequency domain).
	StuckRate float64
	// RelockJitterNS adds a uniform extra delay in [0, RelockJitterNS]
	// nanoseconds to each accepted command: PLL relock jitter on top of
	// the Table-1 transition cost.
	RelockJitterNS float64
}

// Config is the complete fault model for one run. The zero value
// disables injection and leaves all simulator outputs bit-identical.
type Config struct {
	// Seed derives every per-slot fault RNG. Two runs with the same
	// Config (seed included) inject the identical fault sequence.
	Seed     int64
	Sensor   SensorConfig
	Actuator ActuatorConfig
}

// Enabled reports whether any fault is configured.
func (c Config) Enabled() bool {
	return c.Sensor != (SensorConfig{}) || c.Actuator != (ActuatorConfig{})
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"Sensor.DropRate", c.Sensor.DropRate},
		{"Sensor.CorruptRate", c.Sensor.CorruptRate},
		{"Actuator.MissRate", c.Actuator.MissRate},
		{"Actuator.StuckRate", c.Actuator.StuckRate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s %g outside [0,1]", p.name, p.v)
		}
	}
	if c.Sensor.NoiseStdDev < 0 {
		return fmt.Errorf("faults: negative Sensor.NoiseStdDev %g", c.Sensor.NoiseStdDev)
	}
	if c.Sensor.QuantizeStep < 0 {
		return fmt.Errorf("faults: negative Sensor.QuantizeStep %d", c.Sensor.QuantizeStep)
	}
	if c.Sensor.CorruptMax < 0 {
		return fmt.Errorf("faults: negative Sensor.CorruptMax %d", c.Sensor.CorruptMax)
	}
	if c.Actuator.DelayTicks < 0 {
		return fmt.Errorf("faults: negative Actuator.DelayTicks %d", c.Actuator.DelayTicks)
	}
	if c.Actuator.RelockJitterNS < 0 {
		return fmt.Errorf("faults: negative Actuator.RelockJitterNS %g", c.Actuator.RelockJitterNS)
	}
	return nil
}

// Intensity returns the canonical fault profile scaled by level in
// [0, 1]: the knob the robustness sweep turns. Level 0 is fault-free;
// level 1 is a harsh but survivable environment (±2-entry noise, 20%
// dropped samples, occasional counter corruption, 3-tick actuation
// delay, 10% missed steps, 500 ns relock jitter). StuckRate stays 0
// here — a stuck domain measures a different failure mode and is
// enabled explicitly.
func Intensity(level float64, seed int64) Config {
	if level <= 0 {
		return Config{}
	}
	if level > 1 {
		level = 1
	}
	return Config{
		Seed: seed,
		Sensor: SensorConfig{
			NoiseStdDev: 2.0 * level,
			DropRate:    0.20 * level,
			CorruptRate: 0.02 * level,
			CorruptMax:  64,
		},
		Actuator: ActuatorConfig{
			DelayTicks:     int(math.Round(3 * level)),
			MissRate:       0.10 * level,
			RelockJitterNS: 500 * level,
		},
	}
}

// Injector owns the per-domain fault state of one simulation. Slots
// identify controlled domains (the simulator uses its execution-domain
// indices plus one extra slot for the front end); each slot gets
// independent sensor and actuator RNG streams so the fault sequence
// seen by one domain never depends on what another domain drew.
type Injector struct {
	cfg    Config
	period clock.Time
}

// NewInjector builds an injector for one run. samplingPeriod converts
// ActuatorConfig.DelayTicks into simulated time. It returns nil when
// cfg has no fault enabled; a nil *Injector hands out nil sensors and
// actuators, which the simulator treats as absent.
func NewInjector(cfg Config, samplingPeriod clock.Time) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, period: samplingPeriod}
}

// slotSeed decorrelates the per-slot streams from each other and from
// the simulator's own seeded RNGs (clock jitter, trace generation).
func (in *Injector) slotSeed(slot, stream int64) int64 {
	h := uint64(in.cfg.Seed)*0x9E3779B97F4A7C15 + uint64(slot)*0xBF58476D1CE4E5B9 + uint64(stream)*0x94D049BB133111EB
	h ^= h >> 31
	return int64(h)
}

// Sensor returns the fault wrapper for one slot's occupancy readings,
// or nil when sensing is clean (nil receiver included).
func (in *Injector) Sensor(slot int) *Sensor {
	if in == nil || in.cfg.Sensor == (SensorConfig{}) {
		return nil
	}
	return &Sensor{
		cfg: in.cfg.Sensor,
		rng: rand.New(rand.NewSource(in.slotSeed(int64(slot), 1))),
	}
}

// Actuator returns the fault wrapper for one slot's frequency commands,
// or nil when actuation is clean (nil receiver included).
func (in *Injector) Actuator(slot int) *Actuator {
	if in == nil || in.cfg.Actuator == (ActuatorConfig{}) {
		return nil
	}
	return &Actuator{
		cfg:    in.cfg.Actuator,
		rng:    rand.New(rand.NewSource(in.slotSeed(int64(slot), 2))),
		period: in.period,
	}
}

// Sensor corrupts one domain's occupancy readings. Not safe for
// concurrent use; the simulator is single-threaded by design.
type Sensor struct {
	cfg      SensorConfig
	rng      *rand.Rand
	last     int
	haveLast bool
}

// Read maps a true occupancy to the value the controller observes.
// Fault order is fixed — drop, corrupt, noise, quantize, clamp — so a
// seed fully determines the sequence.
func (s *Sensor) Read(occ int) int {
	if s.cfg.DropRate > 0 && s.rng.Float64() < s.cfg.DropRate {
		if s.haveLast {
			return s.last
		}
		// Nothing delivered yet: a dropped first sample reads as empty.
		occ = 0
	} else {
		if s.cfg.CorruptRate > 0 && s.rng.Float64() < s.cfg.CorruptRate {
			max := s.cfg.CorruptMax
			if max <= 0 {
				max = 64
			}
			occ = s.rng.Intn(max + 1)
		}
		if s.cfg.NoiseStdDev > 0 {
			occ += int(math.Round(s.rng.NormFloat64() * s.cfg.NoiseStdDev))
		}
		if step := s.cfg.QuantizeStep; step > 1 {
			occ = (occ / step) * step
		}
		if occ < 0 {
			occ = 0
		}
	}
	s.last = occ
	s.haveLast = true
	return occ
}

// Actuator corrupts one domain's frequency commands. It must be
// consulted on every sampling tick (change=false included) so deferred
// commands are released on time.
type Actuator struct {
	cfg    ActuatorConfig
	rng    *rand.Rand
	period clock.Time

	stuck      bool
	pending    bool
	pendingMHz float64
	dueAt      clock.Time
}

// Filter maps a controller decision to what reaches the clock domain
// this tick. With change=false it still releases a pending deferred
// command whose time has come.
func (a *Actuator) Filter(now clock.Time, targetMHz float64, change bool) (float64, bool) {
	if a.stuck {
		a.pending = false
		return 0, false
	}
	if change {
		if a.cfg.StuckRate > 0 && a.rng.Float64() < a.cfg.StuckRate {
			a.stuck = true
			a.pending = false
			return 0, false
		}
		if a.cfg.MissRate > 0 && a.rng.Float64() < a.cfg.MissRate {
			return 0, false
		}
		delay := clock.Time(a.cfg.DelayTicks) * a.period
		if a.cfg.RelockJitterNS > 0 {
			delay += clock.Time(a.rng.Float64() * a.cfg.RelockJitterNS * float64(clock.Nanosecond))
		}
		if delay <= 0 {
			return targetMHz, true
		}
		// Single-entry command latch: a newer command overwrites an
		// undelivered older one.
		a.pending = true
		a.pendingMHz = targetMHz
		a.dueAt = now + delay
		return 0, false
	}
	if a.pending && now >= a.dueAt {
		a.pending = false
		return a.pendingMHz, true
	}
	return 0, false
}

// PendingDue reports whether a deferred command sits in the latch and
// when it comes due. The event engine schedules an EvActuation wake for
// the controlled domain at that time; a newer deferred command
// overwrites the latch and reschedules the wake.
func (a *Actuator) PendingDue() (clock.Time, bool) { return a.dueAt, a.pending }

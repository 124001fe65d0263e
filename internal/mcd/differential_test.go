package mcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcddvfs/internal/baselines"
	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
	"mcddvfs/internal/faults"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/trace"
)

// diffRun executes one configuration twice — on the default event
// core, which deschedules idle domains, and on a sleepless processor,
// the oracle, whose every domain runs its full cycle work on every edge
// — and requires bit-identical Results. Both runs go through the same
// event loop; only the descheduling differs. Equality is checked twice:
// structurally (reflect.DeepEqual covers every field, meter totals and
// the sampled meter/occupancy streams included) and on the serialized
// artifact bytes, which is the form the experiment cache and CI
// artifact diff actually compare.
func diffRun(t *testing.T, label string, cfg Config, profile string, insts int64, attach func(*Processor)) *Result {
	t.Helper()
	run := func(sleepless bool) (*Result, *Processor) {
		t.Helper()
		prof, err := trace.ByName(profile)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewGenerator(prof, cfg.Seed+100, insts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.sleepless = sleepless
		if attach != nil {
			attach(p)
		}
		res, err := p.Run(gen)
		if err != nil {
			t.Fatalf("%s: run(sleepless=%v): %v", label, sleepless, err)
		}
		return res, p
	}
	event, _ := run(false)
	oracle, op := run(true)
	requireNeverSlept(t, label, op)
	requireSameResult(t, label+": event core vs sleepless oracle", event, oracle)
	return event
}

// requireNeverSlept is the oracle's self-check: a sleepless processor
// whose engine recorded a sleep or a skipped edge would compare the
// descheduling core with itself.
func requireNeverSlept(t *testing.T, label string, p *Processor) {
	t.Helper()
	for name, s := range p.EngineStats() {
		if s.Sleeps != 0 || s.SkippedEdges != 0 {
			t.Errorf("%s: sleepless oracle's %s domain slept %d times and skipped %d edges",
				label, name, s.Sleeps, s.SkippedEdges)
		}
	}
}

// requireSameResult demands got == want structurally and on the
// serialized artifact bytes.
func requireSameResult(t *testing.T, label string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: results diverged:\ngot:  %+v\nwant: %+v", label, got, want)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Errorf("%s: serialized artifacts differ", label)
	}
}

// oracleSchemes are the control schemes the differential tests draw
// from, in draw order.
var oracleSchemes = []struct {
	name string
	fn   func(*Processor)
}{
	{"none", nil},
	{"adaptive", attachAdaptive},
	{"attack-decay", attachAttackDecay},
	{"pid", attachPID},
}

func attachAdaptive(p *Processor) {
	if p.cfg.ControlFrontEnd {
		p.AttachFrontEnd(control.NewAdaptive(control.DefaultConfig(isa.DomainFP)))
	}
	for d := 0; d < isa.NumExecDomains; d++ {
		dom := isa.ExecDomain(d)
		p.Attach(dom, control.NewAdaptive(control.DefaultConfig(dom)))
	}
}

func attachAttackDecay(p *Processor) {
	for d := 0; d < isa.NumExecDomains; d++ {
		p.Attach(isa.ExecDomain(d), baselines.NewAttackDecay(baselines.DefaultAttackDecay()))
	}
}

func attachPID(p *Processor) {
	for d := 0; d < isa.NumExecDomains; d++ {
		p.Attach(isa.ExecDomain(d), baselines.NewPID(baselines.DefaultPID()))
	}
}

// TestEventCoreMatchesOracle pins the headline claim on the default
// machine: the descheduling event core produces the byte-identical
// Result the sleepless oracle does, with and without DVFS control.
func TestEventCoreMatchesOracle(t *testing.T) {
	res := diffRun(t, "uncontrolled", DefaultConfig(), "gcc", 20000, nil)
	if res.Metrics.Instructions != 20000 {
		t.Errorf("retired %d instructions, want 20000", res.Metrics.Instructions)
	}
	diffRun(t, "adaptive", DefaultConfig(), "mcf", 20000, attachAdaptive)
}

// TestEventCoreMatchesOracleRandomized is the differential property
// test: random configurations × trace profiles × fault seeds, each run
// with and without descheduling. Any divergence in any Result field —
// energy accumulators, cycle counts, queue sample streams, frequency
// traces, stall counters — fails the test.
func TestEventCoreMatchesOracleRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	profiles := trace.Names()
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 14; i++ {
		cfg := DefaultConfig()
		cfg.Seed = rng.Int63n(1 << 30)
		profile := profiles[rng.Intn(len(profiles))]
		att := oracleSchemes[rng.Intn(len(oracleSchemes))]
		cfg.DeepSleep = rng.Intn(2) == 0
		cfg.StoreForwarding = rng.Intn(2) == 0
		cfg.Prefetch = rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			cfg.SplitFrontEnd = true
			cfg.ControlFrontEnd = rng.Intn(2) == 0
		}
		if rng.Intn(2) == 0 {
			cfg.Transitions.Style = clock.Transmeta
		}
		if rng.Intn(2) == 0 {
			cfg.SyncPolicy = 1 // token-ring
		}
		var faultLevel float64
		if att.fn != nil && rng.Intn(2) == 0 {
			faultLevel = 0.25 + 0.75*rng.Float64()
			cfg.Faults = faults.Intensity(faultLevel, rng.Int63n(1<<30))
		}
		insts := int64(6000 + rng.Intn(10000))
		label := fmt.Sprintf("case%02d(%s,%s,seed=%d,deep=%v,split=%v,faults=%.2f)",
			i, profile, att.name, cfg.Seed, cfg.DeepSleep, cfg.SplitFrontEnd, faultLevel)
		t.Run(label, func(t *testing.T) {
			diffRun(t, label, cfg, profile, insts, att.fn)
		})
	}
}

// FuzzEventCoreMatchesOracle is the differential property test with the
// fuzzer choosing the point: the knobs TestEventCoreMatchesOracleRandomized
// draws — seed, profile, scheme, DeepSleep, StoreForwarding, Prefetch,
// split or controlled front end, Transmeta transitions, sync policy and
// fault intensity — each run with and without descheduling.
func FuzzEventCoreMatchesOracle(f *testing.F) {
	f.Add(int64(20260808), uint8(0), uint8(1), uint8(0b0101001), uint8(0), uint16(0))
	f.Add(int64(7), uint8(5), uint8(3), uint8(0b1111111), uint8(200), uint16(3000))
	profiles := trace.Names()
	f.Fuzz(func(t *testing.T, seed int64, profile, scheme, knobs, faultLevel uint8, insts uint16) {
		cfg := DefaultConfig()
		cfg.Seed = seed & (1<<30 - 1)
		att := oracleSchemes[int(scheme)%len(oracleSchemes)]
		cfg.DeepSleep = knobs&1 != 0
		cfg.StoreForwarding = knobs&2 != 0
		cfg.Prefetch = knobs&4 != 0
		cfg.SplitFrontEnd = knobs&8 != 0
		cfg.ControlFrontEnd = cfg.SplitFrontEnd && knobs&16 != 0
		if knobs&32 != 0 {
			cfg.Transitions.Style = clock.Transmeta
		}
		if knobs&64 != 0 {
			cfg.SyncPolicy = 1 // token-ring
		}
		var level float64
		if att.fn != nil && faultLevel > 0 {
			level = 0.25 + 0.75*float64(faultLevel-1)/254
			cfg.Faults = faults.Intensity(level, cfg.Seed+1)
		}
		name := profiles[int(profile)%len(profiles)]
		label := fmt.Sprintf("(%s,%s,seed=%d,knobs=%07b,faults=%.2f)", name, att.name, cfg.Seed, knobs&127, level)
		diffRun(t, label, cfg, name, 2000+int64(insts)%6001, att.fn)
	})
}

// flipGovernor caps each core at 500 MHz and uncapped on alternate
// epochs, staggered by core index, so every barrier retargets every
// core's execution domains.
type flipGovernor struct{ epochs int }

func (g *flipGovernor) Apportion(_ clock.Time, _ []float64, caps []float64) {
	g.epochs++
	for i := range caps {
		caps[i] = 0
		if (g.epochs+i)%2 == 1 {
			caps[i] = 500
		}
	}
}

// TestChipMatchesOracle runs a governed multi-core chip with every core
// sleepless and again with every core descheduling, and requires
// bit-identical ChipResults. It is the test of advanceEvent's pause: the
// idle drain must not consume a sleeping domain's edges past an epoch
// deadline, because the cap actuated there changes the voltage its idle
// charge assumes. The epoch is deliberately off the 4 ns sampling grid.
// On the grid (2 µs, DefaultEpoch) the never-sleeping 250 MHz sampling
// clock has an edge exactly at every deadline, which bounds the drain by
// itself, and a drain that ignores the deadline passes unnoticed. With
// the off-grid epoch it fails, DeepSleep on or off; no other test in the
// package catches it.
func TestChipMatchesOracle(t *testing.T) {
	profiles := []string{"adpcm_encode", "idle_burst", "gcc", "swim"}
	const insts = 20000
	for _, deep := range []bool{false, true} {
		label := fmt.Sprintf("deep=%v", deep)
		t.Run(label, func(t *testing.T) {
			run := func(sleepless bool) (*ChipResult, *Chip) {
				t.Helper()
				cores := make([]Config, len(profiles))
				srcs := make([]trace.Source, len(profiles))
				for i, name := range profiles {
					cores[i] = DefaultConfig()
					cores[i].Seed += int64(i)
					cores[i].DeepSleep = deep
					prof, err := trace.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					if srcs[i], err = trace.NewGenerator(prof, cores[i].Seed+100, insts); err != nil {
						t.Fatal(err)
					}
				}
				chip, err := NewChip(ChipConfig{Cores: cores, Epoch: 2*clock.Microsecond + 1001*clock.Picosecond})
				if err != nil {
					t.Fatal(err)
				}
				for i := range cores {
					attachAdaptive(chip.Core(i))
					chip.Core(i).sleepless = sleepless
				}
				chip.SetGovernor(&flipGovernor{})
				res, err := chip.Run(srcs)
				if err != nil {
					t.Fatalf("%s: chip(sleepless=%v): %v", label, sleepless, err)
				}
				return res, chip
			}
			event, _ := run(false)
			oracle, chip := run(true)
			for i := 0; i < chip.Cores(); i++ {
				requireNeverSlept(t, fmt.Sprintf("%s core %d", label, i), chip.Core(i))
			}
			if len(event.EpochTrace) < 4 {
				t.Fatalf("%s: only %d governor epochs; the test needs barriers", label, len(event.EpochTrace))
			}
			requireSameResult(t, label+": event chip vs sleepless chip", event, oracle)
		})
	}
}

// noopGovernor keeps every core uncapped but, by being non-nil, forces
// the chip through its epoch-barrier machinery: pause every core at the
// epoch boundary, sense power, actuate (uncapped) caps, resume. It
// exists to prove the barriers themselves are invisible in the Results.
type noopGovernor struct{}

func (noopGovernor) Apportion(clock.Time, []float64, []float64) {}

// chipDiffRun executes one configuration through the legacy
// single-Processor path and as a one-core Chip — governorless (the
// barrier-free fast path) or under a no-op governor (every epoch
// barrier taken) — and requires the chip's core Result to be
// bit-identical to the legacy Result, structurally and on the
// serialized artifact bytes. This is the refactor's compatibility
// contract: the chip is a superset of the processor, not a fork of it.
func chipDiffRun(t *testing.T, label string, cfg Config, profile string, insts int64, attach func(*Processor), barriers bool) {
	t.Helper()
	prof, err := trace.ByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	newGen := func() trace.Source {
		t.Helper()
		gen, err := trace.NewGenerator(prof, cfg.Seed+100, insts)
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if attach != nil {
		attach(p)
	}
	legacy, err := p.Run(newGen())
	if err != nil {
		t.Fatalf("%s: processor: %v", label, err)
	}

	chip, err := NewChip(ChipConfig{Cores: []Config{cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if attach != nil {
		attach(chip.Core(0))
	}
	if barriers {
		chip.SetGovernor(noopGovernor{})
	}
	cres, err := chip.Run([]trace.Source{newGen()})
	if err != nil {
		t.Fatalf("%s: chip(barriers=%v): %v", label, barriers, err)
	}
	requireSameResult(t, fmt.Sprintf("%s: 1-core chip (barriers=%v) vs processor", label, barriers), cres.Cores[0], legacy)
	if cres.Metrics != legacy.Metrics {
		t.Errorf("%s: chip rollup %+v differs from the single core's metrics %+v", label, cres.Metrics, legacy.Metrics)
	}
}

// TestChipSingleCoreMatchesProcessor pins the chip refactor's gate on
// the default machine: a 1-core chip — with and without epoch barriers
// — is the single-processor path, bit for bit.
func TestChipSingleCoreMatchesProcessor(t *testing.T) {
	chipDiffRun(t, "uncontrolled", DefaultConfig(), "gcc", 20000, nil, false)
	chipDiffRun(t, "uncontrolled+barriers", DefaultConfig(), "gcc", 20000, nil, true)
	chipDiffRun(t, "adaptive", DefaultConfig(), "mcf", 20000, attachAdaptive, false)
	chipDiffRun(t, "adaptive+barriers", DefaultConfig(), "mcf", 20000, attachAdaptive, true)
}

// TestChipSingleCoreMatchesProcessorRandomized sweeps the 1-core-chip
// equivalence across random configurations × trace profiles × control
// schemes × fault intensities, half the cases with the no-op governor's
// epoch barriers active.
func TestChipSingleCoreMatchesProcessorRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	profiles := trace.Names()
	rng := rand.New(rand.NewSource(20260809))
	for i := 0; i < 12; i++ {
		cfg := DefaultConfig()
		cfg.Seed = rng.Int63n(1 << 30)
		profile := profiles[rng.Intn(len(profiles))]
		att := oracleSchemes[rng.Intn(len(oracleSchemes))]
		cfg.DeepSleep = rng.Intn(2) == 0
		cfg.StoreForwarding = rng.Intn(2) == 0
		cfg.Prefetch = rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			cfg.SplitFrontEnd = true
			cfg.ControlFrontEnd = rng.Intn(2) == 0
		}
		if rng.Intn(2) == 0 {
			cfg.Transitions.Style = clock.Transmeta
		}
		if rng.Intn(2) == 0 {
			cfg.SyncPolicy = 1 // token-ring
		}
		var faultLevel float64
		if att.fn != nil && rng.Intn(2) == 0 {
			faultLevel = 0.25 + 0.75*rng.Float64()
			cfg.Faults = faults.Intensity(faultLevel, rng.Int63n(1<<30))
		}
		barriers := rng.Intn(2) == 0
		insts := int64(6000 + rng.Intn(10000))
		label := fmt.Sprintf("case%02d(%s,%s,seed=%d,deep=%v,split=%v,faults=%.2f,barriers=%v)",
			i, profile, att.name, cfg.Seed, cfg.DeepSleep, cfg.SplitFrontEnd, faultLevel, barriers)
		t.Run(label, func(t *testing.T) {
			chipDiffRun(t, label, cfg, profile, insts, att.fn, barriers)
		})
	}
}

// TestEventCoreSkipsEdges asserts the engine actually descheduled work
// on a workload with idle domains: a pure-integer profile leaves the FP
// domain asleep almost permanently.
func TestEventCoreSkipsEdges(t *testing.T) {
	cfg := DefaultConfig()
	prof, err := trace.ByName("adpcm_encode")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(prof, cfg.Seed+100, 20000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(gen); err != nil {
		t.Fatal(err)
	}
	st := p.EngineStats()
	fp := st[NameFP]
	total := fp.SlowEdges + fp.SkippedEdges
	if total == 0 {
		t.Fatal("FP domain recorded no edges")
	}
	if frac := float64(fp.SkippedEdges) / float64(total); frac < 0.5 {
		t.Errorf("FP domain skipped only %.1f%% of %d edges on integer-only code", 100*frac, total)
	}
	for name, s := range st {
		t.Logf("%-9s slow=%-9d skipped=%-9d sleeps=%-7d (%.1f%% skipped)",
			name, s.SlowEdges, s.SkippedEdges, s.Sleeps,
			100*float64(s.SkippedEdges)/float64(s.SlowEdges+s.SkippedEdges+1))
	}
}

package mcd

import (
	"testing"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/trace"
)

func runBench(t *testing.T, name string, insts int64, cfg Config, attach func(*Processor)) *Result {
	t.Helper()
	prof, err := trace.ByName(name)
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
	if attach != nil {
		attach(p)
	}
	res, err := p.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// meanSampled returns the average of r's recorded occupancy series for
// a domain, or 0 when absent.
func meanSampled(r *Result, domain string) float64 {
	s := r.QueueSamples[domain]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.SyncWindow() != 300*clock.Picosecond {
		t.Errorf("sync window = %v, want 300ps", cfg.SyncWindow())
	}
	if cfg.SamplingPeriod() != 4*clock.Nanosecond {
		t.Errorf("sampling period = %v, want 4ns", cfg.SamplingPeriod())
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
	cfg = DefaultConfig()
	cfg.SamplingMHz = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero sampling rate accepted")
	}
	cfg = DefaultConfig()
	delete(cfg.Power, NameFP)
	if err := cfg.Validate(); err == nil {
		t.Error("missing power model accepted")
	}
	// A sampled queue's occupancy must fit a Series sample.
	for name, field := range map[string]func(*Config) *int{
		"IntQSize": func(c *Config) *int { return &c.IntQSize },
		"FPQSize":  func(c *Config) *int { return &c.FPQSize },
		"LSQueue":  func(c *Config) *int { return &c.LSQueue },
		"FetchBuf": func(c *Config) *int { return &c.FetchBuf },
	} {
		cfg = DefaultConfig()
		*field(&cfg) = 65536
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s = 65536 accepted", name)
		}
		*field(&cfg) = 65535
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s = 65535 rejected: %v", name, err)
		}
	}
}

func TestRunCompletesAndRetiresEverything(t *testing.T) {
	res := runBench(t, "epic_decode", 20000, DefaultConfig(), nil)
	if res.Metrics.Instructions != 20000 {
		t.Errorf("retired %d, want 20000", res.Metrics.Instructions)
	}
	if res.Metrics.ExecTime <= 0 {
		t.Error("non-positive exec time")
	}
	if res.Metrics.EnergyJ <= 0 {
		t.Error("non-positive energy")
	}
	if res.IPC < 0.2 || res.IPC > 4 {
		t.Errorf("IPC %.3f implausible", res.IPC)
	}
	if res.BranchMispredictRate <= 0 || res.BranchMispredictRate > 0.5 {
		t.Errorf("mispredict rate %.3f implausible", res.BranchMispredictRate)
	}
	for _, name := range []string{NameFrontEnd, NameInt, NameFP, NameLS} {
		d, ok := res.Domains[name]
		if !ok {
			t.Fatalf("missing domain %s", name)
		}
		if d.EnergyJ <= 0 || d.Cycles == 0 {
			t.Errorf("%s: energy %g cycles %d", name, d.EnergyJ, d.Cycles)
		}
	}
}

func TestQueueSamplesRecorded(t *testing.T) {
	res := runBench(t, "gsm_decode", 10000, DefaultConfig(), nil)
	for _, name := range []string{NameInt, NameFP, NameLS} {
		s := res.QueueSamples[name]
		if len(s) == 0 {
			t.Errorf("%s: no occupancy samples", name)
		}
		for _, v := range s {
			if v > 20 { // unsigned: never below 0
				t.Fatalf("%s: occupancy sample %d out of range", name, v)
			}
		}
	}
	// INT queue must show real activity on an integer codec.
	if meanSampled(res, NameInt) <= 0 {
		t.Error("INT queue never occupied")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	a := runBench(t, "adpcm_encode", 15000, cfg, nil)
	b := runBench(t, "adpcm_encode", 15000, cfg, nil)
	if a.Metrics != b.Metrics {
		t.Errorf("metrics differ across identical runs:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if a.IPC != b.IPC {
		t.Errorf("IPC differs: %v vs %v", a.IPC, b.IPC)
	}
}

func TestLowFrequencySlowsAndSaves(t *testing.T) {
	cfg := DefaultConfig()
	base := runBench(t, "gzip", 15000, cfg, nil)
	slow := runBench(t, "gzip", 15000, cfg, func(p *Processor) {
		p.Attach(isa.DomainInt, &FixedController{MHz: 250})
		// Kick the domain immediately so the whole run is slow.
		p.exec[isa.DomainInt].SetTarget(0, 250)
	})
	if slow.Metrics.ExecTime <= base.Metrics.ExecTime {
		t.Errorf("INT at fmin not slower: %v vs %v", slow.Metrics.ExecTime, base.Metrics.ExecTime)
	}
	intBase := base.Domains[NameInt]
	intSlow := slow.Domains[NameInt]
	if intSlow.MeanFreqMHz >= intBase.MeanFreqMHz {
		t.Errorf("INT mean freq did not drop: %g vs %g", intSlow.MeanFreqMHz, intBase.MeanFreqMHz)
	}
	if intSlow.EnergyJ >= intBase.EnergyJ {
		t.Errorf("INT energy did not drop at fmin: %g vs %g", intSlow.EnergyJ, intBase.EnergyJ)
	}
}

func TestSlowIntDomainBacksUpItsQueue(t *testing.T) {
	cfg := DefaultConfig()
	base := runBench(t, "gzip", 15000, cfg, nil)
	slow := runBench(t, "gzip", 15000, cfg, func(p *Processor) {
		p.exec[isa.DomainInt].SetTarget(0, 250)
	})
	if meanSampled(slow, NameInt) <= meanSampled(base, NameInt) {
		t.Errorf("slow INT domain should raise INT queue occupancy: %.2f vs %.2f",
			meanSampled(slow, NameInt), meanSampled(base, NameInt))
	}
}

func TestFPQueueQuietOnIntegerCode(t *testing.T) {
	res := runBench(t, "adpcm_encode", 15000, DefaultConfig(), nil)
	if occ := meanSampled(res, NameFP); occ > 0.1 {
		t.Errorf("FP queue occupancy %.3f on integer-only code, want ~0", occ)
	}
}

func TestMemoryBoundCodeMissesCaches(t *testing.T) {
	res := runBench(t, "mcf", 20000, DefaultConfig(), nil)
	if res.L1DMissRate < 0.05 {
		t.Errorf("mcf L1D miss rate %.3f suspiciously low", res.L1DMissRate)
	}
	res2 := runBench(t, "adpcm_encode", 20000, DefaultConfig(), nil)
	if res2.L1DMissRate > res.L1DMissRate {
		t.Errorf("tiny-footprint codec misses more than mcf (%.3f vs %.3f)",
			res2.L1DMissRate, res.L1DMissRate)
	}
	if res2.IPC <= res.IPC {
		t.Errorf("cache-resident codec IPC %.2f not above mcf IPC %.2f", res2.IPC, res.IPC)
	}
}

func TestRunTwiceFails(t *testing.T) {
	cfg := DefaultConfig()
	prof, _ := trace.ByName("gzip")
	gen, _ := trace.NewGenerator(prof, 1, 1000)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(gen); err != nil {
		t.Fatal(err)
	}
	gen2, _ := trace.NewGenerator(prof, 1, 1000)
	if _, err := p.Run(gen2); err == nil {
		t.Error("second Run should fail")
	}
}

func TestFrequencyTraceRecordsRetargets(t *testing.T) {
	res := runBench(t, "gzip", 10000, DefaultConfig(), func(p *Processor) {
		p.exec[isa.DomainInt].SetTarget(0, 500)
	})
	tr := res.FreqTrace[NameInt]
	if len(tr) == 0 {
		t.Fatal("no frequency trace recorded")
	}
	// The 73.3 ns/MHz slew is slow relative to a 10K-instruction run;
	// the trace must show the frequency clearly descending from fmax
	// even if the target is not reached yet.
	last := tr[len(tr)-1]
	if last.MHz > 950 {
		t.Errorf("trace did not capture the slew toward 500 MHz: %+v", last)
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].MHz > tr[i-1].MHz {
			t.Fatalf("frequency trace not monotone during a single down-slew: %+v -> %+v", tr[i-1], tr[i])
		}
	}
}

package mcd

import (
	"testing"
	"testing/quick"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/trace"
)

// TestAdaptiveDropsIdleDomainToFloor: on integer-only code, the FP
// queue is permanently empty and the adaptive controller must walk the
// FP domain down toward f_min (the opening of the paper's Figure-7
// narrative).
func TestAdaptiveDropsIdleDomainToFloor(t *testing.T) {
	cfg := DefaultConfig()
	res := runBench(t, "gzip", 400000, cfg, func(p *Processor) {
		for d := 0; d < isa.NumExecDomains; d++ {
			p.Attach(isa.ExecDomain(d), control.NewAdaptive(control.DefaultConfig(isa.ExecDomain(d))))
		}
	})
	tr := res.FreqTrace[NameFP]
	if len(tr) == 0 {
		t.Fatal("no FP trace")
	}
	final := tr[len(tr)-1].MHz
	if final > 400 {
		t.Errorf("idle FP domain ended at %.0f MHz; expected a walk toward 250", final)
	}
	// And it must never have gone up on an empty queue.
	for i := 1; i < len(tr); i++ {
		if tr[i].MHz > tr[i-1].MHz+1 {
			t.Fatalf("FP frequency rose (%v -> %v) with an empty queue", tr[i-1], tr[i])
		}
	}
}

// TestAdaptiveKeepsBusyDomainFast: a loaded INT domain must stay near
// f_max under adaptive control (the controller protects performance
// when the queue runs above reference).
func TestAdaptiveKeepsBusyDomainFast(t *testing.T) {
	cfg := DefaultConfig()
	res := runBench(t, "mcf", 150000, cfg, func(p *Processor) {
		p.Attach(isa.DomainInt, control.NewAdaptive(control.DefaultConfig(isa.DomainInt)))
	})
	if f := res.Domains[NameInt].MeanFreqMHz; f < 850 {
		t.Errorf("INT mean frequency %.0f MHz on a queue-saturated workload; want near f_max", f)
	}
}

// TestEnergyDecomposition: domain energies must sum to the chip total,
// and dynamic+leakage must sum to each domain's energy.
func TestEnergyDecomposition(t *testing.T) {
	res := runBench(t, "gsm_decode", 30000, DefaultConfig(), nil)
	sum := 0.0
	for name, d := range res.Domains {
		if diff := d.EnergyJ - (d.DynamicJ + d.LeakageJ); diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s: energy parts do not sum: %g vs %g+%g", name, d.EnergyJ, d.DynamicJ, d.LeakageJ)
		}
		sum += d.EnergyJ
	}
	if diff := res.Metrics.EnergyJ - sum; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("chip energy %g != sum of domains %g", res.Metrics.EnergyJ, sum)
	}
}

// TestTransmetaStyleRunsAndCostsMore: the idle-through transition model
// must complete and lose more performance than execute-through under
// an action-happy controller.
func TestTransmetaStyleRunsAndCostsMore(t *testing.T) {
	mk := func(style dvfs.TransitionModel) *Result {
		cfg := DefaultConfig()
		cfg.Transitions = style
		return runBench(t, "gzip", 100000, cfg, func(p *Processor) {
			for d := 0; d < isa.NumExecDomains; d++ {
				dom := isa.ExecDomain(d)
				cc := control.DefaultConfig(dom)
				p.Attach(dom, control.NewAdaptive(cc))
			}
		})
	}
	x := mk(dvfs.DefaultTransitions())
	tm := mk(dvfs.TransmetaTransitions())
	if tm.Metrics.ExecTime <= x.Metrics.ExecTime {
		t.Errorf("Transmeta-style (%v) not slower than XScale-style (%v)",
			tm.Metrics.ExecTime, x.Metrics.ExecTime)
	}
}

// TestSyncWindowCostsTime: widening the synchronization window should
// not speed the machine up.
func TestSyncWindowCostsTime(t *testing.T) {
	narrow := DefaultConfig()
	narrow.SyncWindowPS = 0
	wide := DefaultConfig()
	wide.SyncWindowPS = 2000
	a := runBench(t, "gsm_decode", 60000, narrow, nil)
	b := runBench(t, "gsm_decode", 60000, wide, nil)
	if b.Metrics.ExecTime < a.Metrics.ExecTime {
		t.Errorf("2 ns sync window (%v) faster than zero window (%v)",
			b.Metrics.ExecTime, a.Metrics.ExecTime)
	}
}

// TestSmallerROBHurtsIPC: structural sanity of the out-of-order core.
func TestSmallerROBHurtsIPC(t *testing.T) {
	big := DefaultConfig()
	small := DefaultConfig()
	small.ROBSize = 8
	a := runBench(t, "swim", 60000, big, nil)
	b := runBench(t, "swim", 60000, small, nil)
	if b.IPC >= a.IPC {
		t.Errorf("ROB 8 IPC %.3f not below ROB 80 IPC %.3f", b.IPC, a.IPC)
	}
}

// TestQueueOccupancySampleBounds: property — every recorded occupancy
// respects the configured queue capacities.
func TestQueueOccupancySampleBounds(t *testing.T) {
	cfg := DefaultConfig()
	res := runBench(t, "art", 60000, cfg, nil)
	limits := map[string]int{
		NameInt: cfg.IntQSize,
		NameFP:  cfg.FPQSize,
		NameLS:  cfg.LSQueue,
	}
	for name, lim := range limits {
		// Samples are unsigned, so only the upper bound can fail.
		for _, v := range res.QueueSamples[name] {
			if int(v) > lim {
				t.Fatalf("%s occupancy %d outside [0,%d]", name, v, lim)
			}
		}
	}
}

// TestWindowProducerLookup: property-based check of the seq-indexed
// window ring.
func TestWindowProducerLookup(t *testing.T) {
	w := newWindow(64)
	f := func(seqs []uint16) bool {
		live := map[uint64]*uop{}
		for _, s := range seqs {
			seq := uint64(s%256) + 1
			u := &uop{seq: seq}
			// Evicted entries (same slot) silently disappear, which is
			// fine: the contract is lookup returns either the exact
			// uop or nil.
			w.insert(u)
			live[seq] = u
			got := w.lookup(seq)
			if got != nil && got.seq != seq {
				return false
			}
			w.remove(u)
			if w.lookup(seq) == u {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestROBFIFOOrder: property — the ROB pops in push order.
func TestROBFIFOOrder(t *testing.T) {
	r := newROB(16)
	for i := 0; i < 16; i++ {
		r.push(&uop{seq: uint64(i)})
	}
	if !r.full() {
		t.Fatal("ROB should be full")
	}
	for i := 0; i < 16; i++ {
		if u := r.pop(); u.seq != uint64(i) {
			t.Fatalf("pop %d returned seq %d", i, u.seq)
		}
	}
	if !r.empty() {
		t.Fatal("ROB should be empty")
	}
}

func TestROBOverflowPanics(t *testing.T) {
	r := newROB(2)
	r.push(&uop{})
	r.push(&uop{})
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	r.push(&uop{})
}

func TestUnitPoolAcquire(t *testing.T) {
	p := newUnitPool(2)
	if !p.acquire(0, 100) || !p.acquire(0, 100) {
		t.Fatal("two units should be available")
	}
	if p.acquire(50, 100) {
		t.Fatal("third acquire should fail while both busy")
	}
	if !p.acquire(100, 200) {
		t.Fatal("unit should free at its busy-until time")
	}
	// At 150 the first unit is free again and the second is busy.
	if !p.acquire(150, 300) || p.acquire(150, 300) {
		t.Error("want exactly one unit free at 150")
	}
}

// TestControllerSeesLiveOccupancy: the sampling clock must feed the
// controller the same occupancy trajectory the sampler records.
func TestControllerSeesLiveOccupancy(t *testing.T) {
	type probe struct {
		FixedController
		seen []int
	}
	pr := &probe{FixedController: FixedController{MHz: 1000}}
	cfg := DefaultConfig()
	prof, _ := trace.ByName("gzip")
	gen, _ := trace.NewGenerator(prof, 1, 20000)
	p, _ := New(cfg)
	obs := &observingController{inner: pr}
	p.Attach(isa.DomainInt, obs)
	res, err := p.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.QueueSamples[NameInt]
	if len(obs.seen) != len(rec) {
		t.Fatalf("controller saw %d samples, sampler recorded %d", len(obs.seen), len(rec))
	}
	for i := range rec {
		if obs.seen[i] != int(rec[i]) {
			t.Fatalf("sample %d: controller %d vs sampler %d", i, obs.seen[i], rec[i])
		}
	}
}

type observingController struct {
	inner Controller
	seen  []int
}

func (o *observingController) Name() string { return "probe" }
func (o *observingController) Reset()       { o.seen = nil }
func (o *observingController) Observe(now clock.Time, occ int, cur float64) (float64, bool) {
	o.seen = append(o.seen, occ)
	return o.inner.Observe(now, occ, cur)
}

// TestSplitFrontEndRuns: the 5-domain (Iyer-Marculescu) partition must
// complete, account a Fetch domain, and pay a small penalty for the
// extra synchronization boundary relative to the 4-domain machine.
func TestSplitFrontEndRuns(t *testing.T) {
	four := DefaultConfig()
	five := DefaultConfig()
	five.SplitFrontEnd = true
	a := runBench(t, "gsm_decode", 60000, four, nil)
	b := runBench(t, "gsm_decode", 60000, five, nil)
	if _, ok := b.Domains[NameFetch]; !ok {
		t.Fatal("split machine missing Fetch domain stats")
	}
	if _, ok := a.Domains[NameFetch]; ok {
		t.Fatal("unified machine has a Fetch domain")
	}
	if b.Metrics.Instructions != 60000 {
		t.Fatalf("split machine retired %d", b.Metrics.Instructions)
	}
	// The extra boundary must not make the machine faster.
	if b.Metrics.ExecTime < a.Metrics.ExecTime {
		t.Errorf("5-domain machine (%v) faster than 4-domain (%v)",
			b.Metrics.ExecTime, a.Metrics.ExecTime)
	}
	// Front-end energy is split, not duplicated: Fetch + FrontEnd of
	// the split machine should be in the same ballpark as the unified
	// front end (the run is slightly longer, so allow 25%).
	unified := a.Domains[NameFrontEnd].EnergyJ
	split := b.Domains[NameFrontEnd].EnergyJ + b.Domains[NameFetch].EnergyJ
	if split > unified*1.25 || split < unified*0.75 {
		t.Errorf("front-end energy: unified %g vs split %g", unified, split)
	}
}

// TestSplitFrontEndWithAdaptiveControl: DVFS control must work
// unchanged on the 5-domain machine.
func TestSplitFrontEndWithAdaptiveControl(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SplitFrontEnd = true
	res := runBench(t, "gzip", 100000, cfg, func(p *Processor) {
		for d := 0; d < isa.NumExecDomains; d++ {
			p.Attach(isa.ExecDomain(d), control.NewAdaptive(control.DefaultConfig(isa.ExecDomain(d))))
		}
	})
	if res.Domains[NameFP].MeanFreqMHz > 900 {
		t.Errorf("idle FP domain stayed at %.0f MHz under adaptive control", res.Domains[NameFP].MeanFreqMHz)
	}
}

// TestStoreForwardingHappensAndHelps: forwarded loads occur on
// store-then-load address reuse and never hurt performance.
func TestStoreForwardingHappensAndHelps(t *testing.T) {
	on := DefaultConfig()
	off := DefaultConfig()
	off.StoreForwarding = false
	a := runBench(t, "g721_encode", 80000, on, nil)
	b := runBench(t, "g721_encode", 80000, off, nil)
	if a.ForwardedLoads == 0 {
		t.Error("no loads forwarded with forwarding on")
	}
	if b.ForwardedLoads != 0 {
		t.Error("loads forwarded with forwarding off")
	}
	if a.Metrics.ExecTime > b.Metrics.ExecTime+b.Metrics.ExecTime/50 {
		t.Errorf("forwarding slowed the machine: %v vs %v", a.Metrics.ExecTime, b.Metrics.ExecTime)
	}
}

// TestPrefetchCutsMissRateOnStreams: the next-line prefetcher must
// reduce the L1D miss rate on a strided FP workload.
func TestPrefetchCutsMissRateOnStreams(t *testing.T) {
	off := DefaultConfig()
	on := DefaultConfig()
	on.Prefetch = true
	a := runBench(t, "swim", 80000, off, nil)
	b := runBench(t, "swim", 80000, on, nil)
	if b.L1DMissRate >= a.L1DMissRate {
		t.Errorf("prefetch did not cut miss rate: %.3f vs %.3f", b.L1DMissRate, a.L1DMissRate)
	}
	if b.Metrics.ExecTime >= a.Metrics.ExecTime {
		t.Errorf("prefetch did not help swim: %v vs %v", b.Metrics.ExecTime, a.Metrics.ExecTime)
	}
}

// TestRegulatorEnergyCharged: the optional per-transition regulator
// cost must raise total energy when enabled.
func TestRegulatorEnergyCharged(t *testing.T) {
	free := DefaultConfig()
	costly := DefaultConfig()
	costly.Transitions.EnergyPerTransitionJ = 1e-6
	attach := func(p *Processor) {
		for d := 0; d < isa.NumExecDomains; d++ {
			p.Attach(isa.ExecDomain(d), control.NewAdaptive(control.DefaultConfig(isa.ExecDomain(d))))
		}
	}
	a := runBench(t, "gsm_decode", 60000, free, attach)
	b := runBench(t, "gsm_decode", 60000, costly, attach)
	transitions := 0
	for _, name := range []string{NameInt, NameFP, NameLS} {
		transitions += b.Domains[name].Transitions
	}
	if transitions == 0 {
		t.Fatal("no transitions to charge")
	}
	wantExtra := 1e-6 * float64(transitions)
	extra := b.Metrics.EnergyJ - a.Metrics.EnergyJ
	if extra < wantExtra*0.9 {
		t.Errorf("regulator cost not charged: extra %.3g J, want >= %.3g J", extra, wantExtra)
	}
}

// TestRetiredByClassSumsToTotal: the per-class retirement breakdown
// must account for every retired instruction.
func TestRetiredByClassSumsToTotal(t *testing.T) {
	res := runBench(t, "mesa", 30000, DefaultConfig(), nil)
	var sum int64
	for _, n := range res.RetiredByClass {
		sum += n
	}
	if sum != res.Metrics.Instructions {
		t.Errorf("class breakdown sums to %d, want %d", sum, res.Metrics.Instructions)
	}
	if res.RetiredByClass["fadd"] == 0 {
		t.Error("mesa retired no FP adds")
	}
}

// TestDeepSleepCutsIdleDomainEnergy: with the FP unit idle on integer
// code, domain sleep must cut FP dynamic energy well below regular
// clock gating, without touching correctness or timing.
func TestDeepSleepCutsIdleDomainEnergy(t *testing.T) {
	awake := DefaultConfig()
	asleep := DefaultConfig()
	asleep.DeepSleep = true
	a := runBench(t, "gzip", 60000, awake, nil)
	b := runBench(t, "gzip", 60000, asleep, nil)
	if b.Metrics.Instructions != a.Metrics.Instructions {
		t.Fatal("deep sleep changed retirement")
	}
	if b.Metrics.ExecTime != a.Metrics.ExecTime {
		t.Errorf("deep sleep changed timing: %v vs %v", b.Metrics.ExecTime, a.Metrics.ExecTime)
	}
	fa := a.Domains[NameFP].DynamicJ
	fb := b.Domains[NameFP].DynamicJ
	if fb >= fa/2 {
		t.Errorf("FP dynamic energy under sleep = %g, want well below %g", fb, fa)
	}
	// Busy domains are barely affected.
	ia, ib := a.Domains[NameInt].DynamicJ, b.Domains[NameInt].DynamicJ
	if ib < ia*0.9 {
		t.Errorf("INT dynamic energy dropped too much under sleep: %g vs %g", ib, ia)
	}
}

// TestControlledDispatchDomain: with the 5-domain partition and
// dispatch-domain DVFS, a low-IPC workload lets the dispatch domain
// slow down (the fetch queue rarely backs up) and save front-end
// energy, at a bounded performance cost.
func TestControlledDispatchDomain(t *testing.T) {
	fixed := DefaultConfig()
	fixed.SplitFrontEnd = true
	ctrl := DefaultConfig()
	ctrl.SplitFrontEnd = true
	ctrl.ControlFrontEnd = true

	attach := func(p *Processor) {
		cfg := control.DefaultConfig(isa.DomainFP) // qref 4 on a 16-entry queue
		p.AttachFrontEnd(control.NewAdaptive(cfg))
	}
	a := runBench(t, "mcf", 80000, fixed, nil)
	b := runBench(t, "mcf", 80000, ctrl, attach)
	if b.Domains[NameFrontEnd].MeanFreqMHz >= a.Domains[NameFrontEnd].MeanFreqMHz-50 {
		t.Errorf("controlled dispatch domain did not slow on a memory-bound workload: %.0f vs %.0f MHz",
			b.Domains[NameFrontEnd].MeanFreqMHz, a.Domains[NameFrontEnd].MeanFreqMHz)
	}
	if b.Domains[NameFrontEnd].EnergyJ >= a.Domains[NameFrontEnd].EnergyJ {
		t.Errorf("no front-end energy saved: %g vs %g",
			b.Domains[NameFrontEnd].EnergyJ, a.Domains[NameFrontEnd].EnergyJ)
	}
	if slow := float64(b.Metrics.ExecTime)/float64(a.Metrics.ExecTime) - 1; slow > 0.25 {
		t.Errorf("dispatch control cost %.1f%% performance", 100*slow)
	}
	if len(b.QueueSamples["FetchQ"]) == 0 {
		t.Error("fetch-queue occupancy not sampled")
	}
}

// TestControlFrontEndValidation: the flag combinations are enforced.
func TestControlFrontEndValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ControlFrontEnd = true // without SplitFrontEnd
	if _, err := New(cfg); err == nil {
		t.Error("ControlFrontEnd without SplitFrontEnd accepted")
	}
	ok := DefaultConfig()
	p, err := New(ok)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AttachFrontEnd on a non-ControlFrontEnd machine did not panic")
		}
	}()
	p.AttachFrontEnd(&FixedController{MHz: 1000})
}

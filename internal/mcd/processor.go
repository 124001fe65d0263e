package mcd

import (
	"context"
	"errors"
	"fmt"

	"mcddvfs/internal/bpred"
	"mcddvfs/internal/cache"
	"mcddvfs/internal/clock"
	"mcddvfs/internal/faults"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/layout"
	"mcddvfs/internal/power"
	"mcddvfs/internal/queue"
	"mcddvfs/internal/trace"
)

// fetched is a front-end buffer entry: a fetched instruction plus its
// branch prediction.
type fetched struct {
	inst       isa.Inst
	predTaken  bool
	predTarget uint64
	mispredict bool
}

// Engine domain indices, fixed by registration order in New. Exec
// domain d lives at engExecBase + int(d).
const (
	engFE = iota
	engExecBase
	_
	_
	engSampling
	engFetch
	numEngDomains
)

// Processor is one MCD machine instance. Create it with New, attach
// controllers, then call Run exactly once. It is not safe for
// concurrent use: determinism comes from single-threaded simulation.
//
// A chip runs its cores' Processors on parallel goroutines, so what one
// core writes on the edge path must share no 128-byte block with
// another core's state (internal/layout). The small structures the edge
// path writes (the engine, its domains, queues, meters, samplers, unit
// pools, ROB and cache hierarchy headers) are therefore held by value
// here, in one allocation of whole blocks, and every slice the edge
// path writes is allocated in whole blocks by layout.Slice.
type Processor struct {
	cfg Config

	eng clock.Engine
	// doms holds the engine's domains in engine order; fe, exec and
	// fetchDom point into it.
	doms [numEngDomains]clock.Domain
	fe   *clock.Domain
	exec [isa.NumExecDomains]*clock.Domain

	// sleepless turns descheduling off: every domain runs its full cycle
	// work on every edge. That is the reference the differential tests
	// hold the descheduling engine to; only sleep reads it.
	sleepless bool
	// idleCharge holds, per engine domain, the precomputed per-edge
	// energy increments applied while that domain is descheduled. It is
	// refreshed on every Sleep, so it always reflects the sleep-time
	// voltage (wakes on frequency changes keep it from going stale).
	idleCharge [numEngDomains]power.IdleCharge
	// check counts down clock edges to the next context poll.
	check int

	rob rob
	win window

	// feQueue sits between fetch and dispatch. In the 4-domain machine
	// both stages share the FrontEnd clock and the queue has no
	// synchronization window; in the split (5-domain, Iyer-Marculescu
	// style) machine the fetch stage runs on its own clock and the
	// queue synchronizes across the extra boundary.
	feQueue  queue.Queue[fetched]
	fetchDom *clock.Domain // nil unless SplitFrontEnd
	queues   [isa.NumExecDomains]issueQueue
	lsqCount int
	// storeCounts tracks in-flight stores per 8-byte-aligned address,
	// backing store-to-load forwarding.
	storeCounts storeCounter
	forwarded   uint64
	// inflight counts dispatched-but-uncommitted uops per domain,
	// backing the deep-sleep idleness test.
	inflight [isa.NumExecDomains]int

	aluPool  [isa.NumExecDomains]unitPool // simple units per domain
	longPool [isa.NumExecDomains]unitPool // mult/div(/sqrt) units

	pred *bpred.Unit
	mem  cache.Hierarchy

	// Per-domain energy meters, resolved once at construction so the
	// per-cycle paths never hash a domain name. fetchMeter is used only
	// on split-front-end machines.
	feMeter    power.Meter
	fetchMeter power.Meter
	execMeters [isa.NumExecDomains]power.Meter

	// uopFree recycles uop structs: the ROB bounds live uops, so after
	// warm-up dispatch never allocates. deferredBranch is a committed
	// blocking branch whose recycle waits until fetch has observed its
	// resolution (fetch still holds the pointer).
	uopFree        []*uop
	deferredBranch *uop
	// issued is execCycle's reusable list of the uops one edge issued.
	issued []*uop

	// Single-entry voltage memos, one per metered domain: outside
	// transitions the frequency is constant for long stretches, so the
	// clamp+interpolate in Range.VoltageFor is paid once per frequency
	// value instead of once per cycle. Slot NumExecDomains is the
	// front end's.
	voltFreq [isa.NumExecDomains + 1]float64
	voltV    [isa.NumExecDomains + 1]float64

	// syncWin caches cfg.SyncWindow() for the issue inner loop.
	syncWin clock.Time

	controllers [isa.NumExecDomains]Controller
	samplers    [isa.NumExecDomains]queue.Sampler
	freqTrace   [isa.NumExecDomains][]FreqPoint
	lastTraceF  [isa.NumExecDomains]float64

	// Fault-injection hooks on the control loop (nil = clean). Sensors
	// corrupt what controllers observe; actuators corrupt what reaches
	// the clock domains. Samplers always record ground truth.
	sensors   [isa.NumExecDomains]*faults.Sensor
	actuators [isa.NumExecDomains]*faults.Actuator

	// Dispatch-domain control (5-domain machines with ControlFrontEnd).
	feController Controller
	feSampler    queue.Sampler // used only with cfg.ControlFrontEnd
	feSensor     *faults.Sensor
	feActuator   *faults.Actuator

	src trace.Source

	nextSeq      uint64
	physIntFree  int
	physFPFree   int
	retired      int64
	retiredByCls [isa.NumClasses]int64
	branches     uint64
	mispredicts  uint64
	traceDone    bool
	fetchBlocked clock.Time // no fetch before this time
	// blockingBranch is a mispredicted branch whose resolution gates
	// fetch; pendingMispredict covers the window between fetching such
	// a branch and dispatching it.
	blockingBranch    *uop
	pendingMispredict bool

	lastCommit clock.Time
	ran        bool

	// eventNow is the time of the last consumed clock edge — the resume
	// point a chip's epoch barrier pauses the event loop at, and the end
	// time collect closes the meters at.
	eventNow clock.Time
	// execCapMHz is the chip governor's frequency ceiling on the
	// execution domains (0 = uncapped). uncappedMHz remembers each
	// domain controller's last quantized target so lifting or lowering
	// the cap can re-derive the effective frequency without consulting
	// the controller.
	execCapMHz  float64
	uncappedMHz [isa.NumExecDomains]float64
}

// New builds a processor from cfg.
func New(cfg Config) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The structures held by value are built by their packages'
	// constructors and copied in; none holds a pointer to itself.
	p := &Processor{
		cfg:         cfg,
		rob:         newROB(cfg.ROBSize),
		win:         newWindow(cfg.ROBSize + 1024),
		pred:        bpred.DefaultUnit(),
		mem:         *cache.NewHierarchy(cfg.Cache),
		physIntFree: cfg.PhysInt,
		physFPFree:  cfg.PhysFP,
		nextSeq:     1, // seq 0 is the "operand ready" sentinel
		storeCounts: newStoreCounter(cfg.LSQSize),
	}
	// At most ROBSize uops are in flight, plus one committed blocking
	// branch awaiting its fetch-side release; one contiguous slab seeds
	// the free list so steady-state dispatch is allocation-free.
	slab := layout.Slice[uop](cfg.ROBSize + 1)
	p.uopFree = layout.Slice[*uop](cfg.ROBSize + 1)[:0]
	for i := range slab {
		p.uopFree = append(p.uopFree, &slab[i])
	}
	p.issued = layout.Slice[*uop](cfg.IssueWidth)[:0]
	for d := 0; d < isa.NumExecDomains; d++ {
		p.uncappedMHz[d] = cfg.Range.MaxMHz
	}

	if inj := faults.NewInjector(cfg.Faults, cfg.SamplingPeriod()); inj != nil {
		for d := 0; d < isa.NumExecDomains; d++ {
			p.sensors[d] = inj.Sensor(d)
			p.actuators[d] = inj.Actuator(d)
		}
		p.feSensor = inj.Sensor(isa.NumExecDomains)
		p.feActuator = inj.Actuator(isa.NumExecDomains)
	}
	slew := cfg.Transitions.SlewPerMHz(cfg.Range)
	feCfg := clock.DomainConfig{
		Name: NameFrontEnd, FreqMHz: cfg.Range.MaxMHz,
		JitterPS: cfg.JitterPS, Seed: cfg.Seed + 1,
	}
	if cfg.ControlFrontEnd {
		feCfg.MinMHz = cfg.Range.MinMHz
		feCfg.MaxMHz = cfg.Range.MaxMHz
		feCfg.SlewPerMHz = slew
		feCfg.Style = cfg.Transitions.Style
	}
	p.doms[engFE] = *clock.NewDomain(feCfg)
	p.fe = &p.doms[engFE]
	names := [isa.NumExecDomains]string{isa.DomainInt: NameInt, isa.DomainFP: NameFP, isa.DomainLS: NameLS}
	for d := 0; d < isa.NumExecDomains; d++ {
		p.doms[engExecBase+d] = *clock.NewDomain(clock.DomainConfig{
			Name: names[d], FreqMHz: cfg.Range.MaxMHz,
			MinMHz: cfg.Range.MinMHz, MaxMHz: cfg.Range.MaxMHz,
			SlewPerMHz: slew, JitterPS: cfg.JitterPS,
			Style: cfg.Transitions.Style, Seed: cfg.Seed + 2 + int64(d),
		})
		p.exec[d] = &p.doms[engExecBase+d]
	}
	p.doms[engSampling] = *clock.NewDomain(clock.DomainConfig{
		Name: "sampling", FreqMHz: cfg.SamplingMHz, Seed: cfg.Seed + 9,
	})
	for i := engFE; i <= engSampling; i++ {
		p.eng.Add(&p.doms[i])
	}

	syncWin := cfg.SyncWindow()
	p.syncWin = syncWin
	feWin := clock.Time(0)
	if cfg.SplitFrontEnd {
		feWin = syncWin
		p.doms[engFetch] = *clock.NewDomain(clock.DomainConfig{
			Name: NameFetch, FreqMHz: cfg.Range.MaxMHz,
			JitterPS: cfg.JitterPS, Seed: cfg.Seed + 7,
		})
		p.fetchDom = &p.doms[engFetch]
		p.eng.Add(p.fetchDom)
	}
	p.feQueue = *queue.NewWithPolicy[fetched]("FetchQ", cfg.FetchBuf, feWin, cfg.SyncPolicy)
	p.queues[isa.DomainInt] = newIssueQueue(cfg.IntQSize, cfg.ROBSize, syncWin, cfg.SyncPolicy)
	p.queues[isa.DomainFP] = newIssueQueue(cfg.FPQSize, cfg.ROBSize, syncWin, cfg.SyncPolicy)
	p.queues[isa.DomainLS] = newIssueQueue(cfg.LSQueue, cfg.ROBSize, syncWin, cfg.SyncPolicy)

	// All six unit pools share one array of whole blocks. The LS
	// domain's long pool is unused; it keeps indexing uniform.
	sizes := [2 * isa.NumExecDomains]int{cfg.IntALUs, cfg.IntMultDiv, cfg.FPALUs, cfg.FPMultDiv, cfg.MemPorts, 1}
	total := 0
	for _, n := range sizes {
		total += n
	}
	units := layout.Slice[funcUnit](total)
	for d := 0; d < isa.NumExecDomains; d++ {
		alu, long := sizes[2*d], sizes[2*d+1]
		p.aluPool[d] = unitPool{units: units[:alu:alu]}
		p.longPool[d] = unitPool{units: units[alu : alu+long : alu+long]}
		units = units[alu+long:]
	}

	feModel := cfg.Power[NameFrontEnd]
	if cfg.SplitFrontEnd {
		// Split the front-end energy budget across the two new
		// domains: fetch (I-cache + predictor) ~45%, dispatch
		// (rename/ROB/commit) ~55%.
		fetchModel := feModel
		fetchModel.Name = NameFetch
		fetchModel.SwitchedCapF *= 0.45
		fetchModel.LeakagePerV *= 0.45
		p.fetchMeter = *power.NewMeter(fetchModel)
		feModel.SwitchedCapF *= 0.55
		feModel.LeakagePerV *= 0.55
	}
	p.feMeter = *power.NewMeter(feModel)
	p.execMeters[isa.DomainInt] = *power.NewMeter(cfg.Power[NameInt])
	p.execMeters[isa.DomainFP] = *power.NewMeter(cfg.Power[NameFP])
	p.execMeters[isa.DomainLS] = *power.NewMeter(cfg.Power[NameLS])
	for d := 0; d < isa.NumExecDomains; d++ {
		p.samplers[d] = *queue.NewSampler(cfg.SampleLimit)
	}
	if cfg.ControlFrontEnd {
		p.feSampler = *queue.NewSampler(cfg.SampleLimit)
	}
	return p, nil
}

// AttachFrontEnd installs a DVFS controller on the dispatch domain of a
// split, ControlFrontEnd machine; the controller observes the fetch
// queue's occupancy.
func (p *Processor) AttachFrontEnd(c Controller) {
	if !p.cfg.ControlFrontEnd {
		panic("mcd: AttachFrontEnd requires Config.ControlFrontEnd")
	}
	p.feController = c
}

// Attach installs a DVFS controller on an execution domain. Passing nil
// leaves the domain pinned at its initial (maximum) frequency.
func (p *Processor) Attach(d isa.ExecDomain, c Controller) {
	p.controllers[d] = c
}

// EngineStats reports, per clock domain, how the event engine spent the
// run: slow edges (full cycle work), skipped edges (descheduled,
// idle-charged), sleeps, and wake causes. Deliberately not part of
// Result — the default artifacts must stay byte-identical across cores.
func (p *Processor) EngineStats() map[string]clock.DomainEngineStats {
	out := make(map[string]clock.DomainEngineStats, p.eng.Len())
	for i := 0; i < p.eng.Len(); i++ {
		out[p.eng.Domain(i).Name()] = p.eng.Stats(i)
	}
	return out
}

// Run simulates the instruction source to completion and returns the
// result. Any trace.Source works: a synthetic Generator, an in-memory
// trace.Replayer or a chunked trace.ChunkedReplayer. A Processor can
// run only once.
func (p *Processor) Run(src trace.Source) (*Result, error) {
	return p.RunContext(context.Background(), src)
}

// ctxCheckInterval is how many clock edges pass between context
// checks: frequent enough that cancellation lands within microseconds
// of wall time, rare enough that the per-edge cost is one decrement.
const ctxCheckInterval = 1 << 16

// commitTimeout is the deadlock guard: the machine must commit
// something at least every 2 simulated milliseconds (worst-case
// memory-bound code commits thousands of times per ms).
const commitTimeout = 2 * clock.Millisecond

// RunContext is Run with cancellation: the simulation aborts with
// ctx.Err() (context.Canceled or context.DeadlineExceeded) shortly
// after the context ends. A cancelled Processor is spent, like any
// other that has run.
func (p *Processor) RunContext(ctx context.Context, src trace.Source) (*Result, error) {
	if err := p.beginEventRun(ctx, src); err != nil {
		return nil, err
	}
	if _, err := p.advanceEvent(ctx, clock.Forever); err != nil {
		return nil, err
	}
	return p.collect(p.eventNow), nil
}

// beginEventRun claims the processor for an event-driven run and binds
// its instruction source — the setup half of RunContext, split out so a
// Chip can interleave advanceEvent calls across cores.
func (p *Processor) beginEventRun(ctx context.Context, src trace.Source) error {
	if p.ran {
		return errors.New("mcd: Processor.Run called twice; create a new Processor per run")
	}
	p.ran = true
	p.src = src
	p.check = ctxCheckInterval
	return ctx.Err()
}

// advanceEvent is the event-driven main loop. Every clock edge of every
// domain is still consumed in exact arbitration order (edge times and
// jitter draws are part of the bit-exact contract), but a descheduled
// domain's edge skips its cycle work entirely: the engine advances the
// clock and the precomputed idle charge replays the meter's float
// stream. A domain runs its full cycle work again at the first edge at
// or after its earliest wake event.
//
// The loop runs until the workload completes (done = true) or the next
// pending edge lands at or after deadline, whichever is first. Pausing
// consumes nothing — Next is a peek — so a later call resumes the
// bit-exact edge stream where this one stopped; clock.Forever never
// pauses. The last consumed edge time persists in p.eventNow for
// collect. On a sleepless processor no domain ever sleeps, so every
// edge takes the slow path: the same loop is its own reference.
func (p *Processor) advanceEvent(ctx context.Context, deadline clock.Time) (bool, error) {
	eng := &p.eng
	for {
		idx, t := eng.Next()
		if idx < 0 {
			return false, errors.New("mcd: all clocks stopped")
		}
		if t >= deadline {
			return false, nil
		}
		if eng.Asleep(idx) {
			if t < eng.WakeAt(idx) {
				h := eng.IdleHorizon()
				if h > deadline {
					// The drain must not consume sleeping domains' edges
					// past the pause point: a governor actuation at the
					// deadline changes the voltage their idle charges
					// assume.
					h = deadline
				}
				if t < h {
					// No slow edge can run before h: batch-drain every
					// sleeping domain's edges below it without
					// re-arbitrating per edge.
					p.drainIdle(h)
				} else {
					eng.IdleAdvance(idx)
					p.idleCharge[idx].Tick(t)
					p.check--
				}
				if p.check <= 0 {
					p.check = ctxCheckInterval
					if err := ctx.Err(); err != nil {
						return false, err
					}
				}
				continue
			}
			eng.WakeDue(idx)
		}
		eng.Advance(idx)
		p.eventNow = t
		p.runEdge(idx, t)
		if p.traceDone && p.rob.empty() && p.feQueue.Empty() {
			return true, nil
		}
		if t-p.lastCommit > commitTimeout {
			return false, fmt.Errorf("mcd: no commit progress since %v (now %v): likely scheduling deadlock", p.lastCommit, t)
		}
		if p.check--; p.check <= 0 {
			p.check = ctxCheckInterval
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
	}
}

// drainIdle consumes every sleeping domain's clock edges strictly
// before the horizon h in one tight loop per domain: clock advance
// (jitter stream included) plus the precomputed idle energy charge,
// with none of the per-edge arbitration of the main loop. Cross-domain
// ordering is free here — a descheduled edge touches only its own
// domain's clock, RNG, and meter — so per-domain batching accumulates
// the bit-identical float streams the edge-by-edge path would. The
// drain is bounded by the context-check budget so cancellation stays
// responsive even when the horizon is far away.
func (p *Processor) drainIdle(h clock.Time) {
	eng := &p.eng
	budget := p.check
	n := 0
	for di := 0; di < eng.Len(); di++ {
		if !eng.Asleep(di) {
			continue
		}
		d := eng.Domain(di)
		charge := p.idleCharge[di]
		for n < budget {
			t := d.NextEdge()
			if t >= h {
				break
			}
			eng.IdleAdvance(di)
			charge.Tick(t)
			n++
		}
	}
	p.check -= n
}

// sleep deschedules engine domain idx until `until` (and, with
// wakeOnIssue, the next issue broadcast), charging each skipped edge
// with charge. It is the processor's only call of Engine.Sleep: on a
// sleepless processor it does nothing, so every domain runs every edge
// and every wake is a no-op on an awake domain.
func (p *Processor) sleep(idx int, charge power.IdleCharge, until clock.Time, wakeOnIssue bool) {
	if p.sleepless {
		return
	}
	p.idleCharge[idx] = charge
	p.eng.Sleep(idx, until, wakeOnIssue)
}

// runEdge dispatches one consumed clock edge to its domain's cycle
// work.
func (p *Processor) runEdge(idx int, now clock.Time) {
	switch idx {
	case engFE:
		p.frontEndCycle(now)
	case engExecBase + int(isa.DomainInt):
		p.execCycle(now, isa.DomainInt)
	case engExecBase + int(isa.DomainFP):
		p.execCycle(now, isa.DomainFP)
	case engExecBase + int(isa.DomainLS):
		p.execCycle(now, isa.DomainLS)
	case engSampling:
		p.sampleCycle(now)
	case engFetch:
		p.fetchCycle(now)
	}
}

// voltageFor returns Range.VoltageFor(freq) through the single-entry
// memo of the given slot (an isa.ExecDomain, or isa.NumExecDomains for
// the front end). The mapping is unchanged; only the repeated
// clamp+interpolate for an unchanged frequency is skipped.
func (p *Processor) voltageFor(slot int, freq float64) float64 {
	if freq != p.voltFreq[slot] {
		p.voltFreq[slot] = freq
		p.voltV[slot] = p.cfg.Range.VoltageFor(freq)
	}
	return p.voltV[slot]
}

// feVoltage is the dispatch domain's supply: fixed at V_max unless the
// domain is DVFS-controlled, in which case it tracks its frequency.
func (p *Processor) feVoltage(now clock.Time) float64 {
	if p.cfg.ControlFrontEnd {
		return p.voltageFor(int(isa.NumExecDomains), p.fe.FreqMHz(now))
	}
	return p.cfg.Range.MaxV
}

// frontEndCycle performs commit, (in the unified machine) fetch, and
// dispatch for one front-end clock edge.
func (p *Processor) frontEndCycle(now clock.Time) {
	committed := p.commit(now)
	fetchedN := 0
	width := float64(p.cfg.RetireWidth + p.cfg.DecodeWidth)
	if p.fetchDom == nil {
		fetchedN = p.fetch(now)
		width += float64(p.cfg.FetchWidth)
	}
	dispatched := p.dispatch(now)

	act := float64(committed+fetchedN+dispatched) / width
	m := &p.feMeter
	v := p.feVoltage(now)
	m.Cycle(v, act)
	m.Leak(now, v)
	if committed+fetchedN+dispatched == 0 {
		p.maybeSleepFE(now, v)
	}
}

// maybeSleepFE deschedules the front-end domain after a provably idle
// cycle. The sleep bound is the earliest time any of its three stages
// can do work again: commit wakes when the ROB head's result lands (or
// on any issue, if the head has not issued yet), fetch wakes per
// fetchSleepBound, dispatch per dispatchSleepBound. Events internal to
// the front end itself (a commit freeing ROB/LSQ/register resources, a
// dispatch draining the fetch buffer) need no wake: they can only
// happen on front-end edges the domain would be running anyway.
func (p *Processor) maybeSleepFE(now clock.Time, v float64) {
	if p.cfg.ControlFrontEnd && p.fe.InTransition(now) {
		return // supply voltage is moving edge-to-edge
	}
	bound := clock.Forever
	issueWake := false
	if head := p.rob.peek(); head != nil {
		if head.state == stateIssued {
			bound = head.readyAt
		} else {
			issueWake = true
		}
	}
	if p.fetchDom == nil {
		fb, iw, ok := p.fetchSleepBound(now)
		if !ok {
			return
		}
		if fb < bound {
			bound = fb
		}
		issueWake = issueWake || iw
	}
	db, ok := p.dispatchSleepBound(now)
	if !ok {
		return
	}
	if db < bound {
		bound = db
	}
	if bound <= now {
		return
	}
	p.sleep(engFE, p.feMeter.IdleCharge(v), bound, issueWake)
}

// fetchSleepBound returns the earliest time the fetch stage can make
// progress again, whether an issue broadcast should also wake it, and
// whether sleeping is safe at all. Forever means only an explicit Wake
// (fetch-buffer drain, mispredict-state change) can make fetch runnable.
func (p *Processor) fetchSleepBound(now clock.Time) (clock.Time, bool, bool) {
	if b := p.blockingBranch; b != nil {
		if b.state == stateIssued {
			return b.readyAt, false, true // resolution time is known
		}
		return clock.Forever, true, true // wake when it issues
	}
	if p.pendingMispredict || p.traceDone {
		return clock.Forever, false, true
	}
	if now < p.fetchBlocked {
		return p.fetchBlocked, false, true
	}
	if p.feQueue.Full() {
		return clock.Forever, false, true
	}
	// Fetch could make progress right now; running the cycle is the only
	// safe option.
	return 0, false, false
}

// dispatchSleepBound returns the earliest time the dispatch stage can
// make progress again and whether sleeping is safe. It replicates
// dispatch's hazard checks on the front entry without its side effects;
// hazards cleared by commit (ROB, LSQ, registers) bound to Forever
// because commit runs on this same domain.
func (p *Processor) dispatchSleepBound(now clock.Time) (clock.Time, bool) {
	if p.feQueue.Empty() {
		return clock.Forever, true
	}
	if vis := p.feQueue.VisibleFrom(0); vis > now {
		return vis, true
	}
	f, _ := p.feQueue.FrontPtr(now)
	in := f.inst
	if p.rob.full() {
		return clock.Forever, true
	}
	dom := in.Class.Domain()
	if dom == isa.DomainLS && p.lsqCount >= p.cfg.LSQSize {
		return clock.Forever, true
	}
	if (&in).HasOutput() {
		if (&in).IsFP() {
			if p.physFPFree == 0 {
				return clock.Forever, true
			}
		} else if p.physIntFree == 0 {
			return clock.Forever, true
		}
	}
	// The front entry is blocked (at most) by a full target queue, whose
	// per-cycle stall accounting requires running the cycle. Don't sleep.
	return 0, false
}

// fetchCycle is the split machine's dedicated fetch-domain cycle.
func (p *Processor) fetchCycle(now clock.Time) {
	n := p.fetch(now)
	m := &p.fetchMeter
	// The fetch domain always runs at f_max / V_max.
	m.Cycle(p.cfg.Range.MaxV, float64(n)/float64(p.cfg.FetchWidth))
	m.Leak(now, p.cfg.Range.MaxV)
	if n > 0 {
		// New fetch-buffer entries: the dispatch domain may be sleeping
		// on an empty buffer.
		p.eng.Wake(engFE, clock.EvQueuePush)
		return
	}
	if fb, iw, ok := p.fetchSleepBound(now); ok && fb > now {
		p.sleep(engFetch, m.IdleCharge(p.cfg.Range.MaxV), fb, iw)
	}
}

// commit retires completed uops in order, up to the retire width.
func (p *Processor) commit(now clock.Time) int {
	n := 0
	for n < p.cfg.RetireWidth {
		u := p.rob.peek()
		if u == nil || !u.doneBy(now) {
			break
		}
		p.rob.pop()
		p.win.remove(u)
		if u.hasReg {
			if u.inst.IsFP() {
				p.physFPFree++
			} else {
				p.physIntFree++
			}
		}
		p.inflight[u.domain]--
		if p.cfg.DeepSleep && p.inflight[u.domain] == 0 && p.queues[u.domain].empty() {
			// The domain just became deep-sleep eligible: its energy
			// regime changes from idle-gated to deep-gated, so a sleeping
			// domain must re-run one cycle to switch charge rates.
			p.eng.Wake(engExecBase+int(u.domain), clock.EvQueueDrain)
		}
		if u.domain == isa.DomainLS {
			p.lsqCount--
			if u.inst.Class == isa.Store && p.cfg.StoreForwarding {
				p.storeCounts.decr(u.inst.Addr &^ 7)
			}
		}
		p.retired++
		p.retiredByCls[u.inst.Class]++
		p.lastCommit = now
		if u == p.blockingBranch {
			// fetch still holds this pointer to observe the branch's
			// resolution; recycling waits until it lets go.
			p.deferredBranch = u
		} else {
			p.uopFree = append(p.uopFree, u)
		}
		n++
	}
	return n
}

// doneBy reports whether the uop's result is architecturally complete
// at time now.
func (u *uop) doneBy(now clock.Time) bool {
	return u.state == stateIssued && u.readyAt <= now
}

// fetch pulls instructions from the trace into the fetch buffer,
// modeling I-cache misses and mispredicted-branch fetch stalls.
func (p *Processor) fetch(now clock.Time) int {
	// A resolved mispredicted branch unblocks fetch after the redirect
	// penalty.
	if p.blockingBranch != nil {
		if !p.blockingBranch.doneBy(now) {
			return 0
		}
		fePeriod := clock.PeriodForMHz(p.fetchClock().FreqMHz(now))
		p.fetchBlocked = now + clock.Time(p.cfg.MispredictRedirect)*fePeriod
		if p.deferredBranch == p.blockingBranch {
			p.uopFree = append(p.uopFree, p.deferredBranch)
			p.deferredBranch = nil
		}
		p.blockingBranch = nil
		return 0
	}
	if p.pendingMispredict || p.traceDone || now < p.fetchBlocked {
		return 0
	}
	n := 0
	for n < p.cfg.FetchWidth && !p.feQueue.Full() {
		in, ok := p.src.Next()
		if !ok {
			p.traceDone = true
			break
		}
		f := fetched{inst: in}
		// I-cache access; a miss blocks further fetch until the fill.
		level := p.mem.Inst(in.PC)
		if level != cache.LevelL1 {
			cycles, fixedNS := p.mem.InstLatency(level)
			fePeriod := clock.PeriodForMHz(p.fetchClock().FreqMHz(now))
			p.fetchBlocked = now + clock.Time(cycles)*fePeriod +
				clock.Time(fixedNS*float64(clock.Nanosecond))
		}
		if in.Class == isa.Branch {
			p.branches++
			f.predTaken, f.predTarget = p.pred.Predict(in.PC)
			f.mispredict = p.pred.Resolve(in.PC, f.predTaken, f.predTarget, in.Taken, in.Target)
			if f.mispredict {
				p.mispredicts++
				// Stop fetching: the machine is on the wrong path
				// until this branch resolves in the integer core.
				p.pendingMispredict = true
				p.feQueue.Push(now, f)
				n++
				break
			}
		}
		p.feQueue.Push(now, f)
		n++
		if now < p.fetchBlocked { // the miss entry itself was fetched
			break
		}
	}
	return n
}

// dispatch renames and inserts fetched instructions into the ROB and
// the per-domain issue queues, in order, stopping at the first
// structural hazard.
func (p *Processor) dispatch(now clock.Time) int {
	n := 0
	for n < p.cfg.DecodeWidth {
		f, ok := p.feQueue.FrontPtr(now)
		if !ok {
			break
		}
		in := f.inst
		dom := in.Class.Domain()
		if p.rob.full() {
			break
		}
		if dom == isa.DomainLS && p.lsqCount >= p.cfg.LSQSize {
			break
		}
		needsReg := (&in).HasOutput()
		if needsReg {
			if (&in).IsFP() {
				if p.physFPFree == 0 {
					break
				}
			} else if p.physIntFree == 0 {
				break
			}
		}
		q := &p.queues[dom]
		if q.full() {
			// Count the stall against the target queue and stop: this
			// back-pressure is the signal DVFS controllers react to.
			q.fullStalls++
			break
		}

		u := p.allocUop()
		// Reset every field explicitly: a struct-literal assignment of
		// the ~100-byte uop costs a duffcopy (plus zeroing a temporary)
		// per dispatched instruction.
		u.seq = p.nextSeq
		u.inst = in
		u.domain = dom
		u.state = stateDispatched
		u.readyAt = 0
		u.waiters = nil
		u.predTaken = f.predTaken
		u.predTarget = f.predTarget
		u.mispredict = f.mispredict
		u.hasReg = false
		p.nextSeq++
		u.pending = 0
		u.src1 = p.dependOn(u, in.Dep1, &u.waitNext1)
		u.src2 = p.dependOn(u, in.Dep2, &u.waitNext2)
		if needsReg {
			u.hasReg = true
			if (&in).IsFP() {
				p.physFPFree--
			} else {
				p.physIntFree--
			}
		}
		p.inflight[dom]++
		if dom == isa.DomainLS {
			p.lsqCount++
			if in.Class == isa.Store && p.cfg.StoreForwarding {
				p.storeCounts.incr(in.Addr &^ 7)
			}
		}
		p.win.insert(u)
		p.rob.push(u)
		q.push(now, u)
		p.eng.Wake(engExecBase+int(dom), clock.EvQueuePush)
		if u.mispredict {
			p.blockingBranch = u
			p.pendingMispredict = false
			if p.fetchDom != nil {
				// The fetch domain may be sleeping unboundedly on
				// pendingMispredict; the gate is now the branch itself,
				// which resolves at a knowable time.
				p.eng.Wake(engFetch, clock.EvQueueDrain)
			}
		}
		if p.fetchDom != nil && p.feQueue.Full() {
			// Removing the front entry reopens a full fetch buffer.
			p.eng.Wake(engFetch, clock.EvQueueDrain)
		}
		p.feQueue.PopFront()
		n++
	}
	return n
}

// allocUop takes a recycled uop from the free list, falling back to the
// heap only if the list is unexpectedly empty. The caller overwrites
// every field.
func (p *Processor) allocUop() *uop {
	if n := len(p.uopFree); n > 0 {
		u := p.uopFree[n-1]
		p.uopFree = p.uopFree[:n-1]
		return u
	}
	return new(uop)
}

// fetchClock returns the clock that paces instruction fetch.
func (p *Processor) fetchClock() *clock.Domain {
	if p.fetchDom != nil {
		return p.fetchDom
	}
	return p.fe
}

// dependOn resolves one operand of the dispatching uop u from its
// dependency distance, which counts backwards over *all* older
// instructions, and returns the producer's sequence number: 0 when the
// operand is ready (no distance, or the producer has committed or
// writes no register). A producer that has not issued yet parks u on
// its waiter list, linked through next; a producer both operands read
// links u once (it is then already the list's head).
func (p *Processor) dependOn(u *uop, dist uint32, next **uop) uint64 {
	if dist == 0 || uint64(dist) >= u.seq {
		return 0
	}
	pr := p.win.lookup(u.seq - uint64(dist))
	if pr == nil || !pr.inst.HasOutput() {
		return 0
	}
	if pr.state != stateIssued && pr.waiters != u {
		*next = pr.waiters
		pr.waiters = u
		u.pending++
	}
	return pr.seq
}

// srcReadyAt reports whether the operand produced by seq is available
// to a consumer in domain dom at time now, charging the synchronization
// window for cross-domain result forwarding. Only a candidate asks, so
// the producer has issued or committed. When the operand is not ready,
// the returned time is the earliest moment it can become ready: the
// producer's readyAt, NOT readyAt plus the synchronization window. A
// cross-domain operand also becomes ready the moment its producer
// commits (the value then comes from the register file, not the
// forwarding network), and commit can land anywhere in
// [readyAt, readyAt+syncWin). readyAt is the latest time provably
// below both paths.
func (p *Processor) srcReadyAt(seq uint64, dom isa.ExecDomain, now clock.Time) (bool, clock.Time) {
	u := p.win.lookup(seq)
	if u == nil {
		return true, 0 // committed
	}
	ready := u.readyAt
	if u.domain != dom {
		ready += p.syncWin
	}
	return ready <= now, u.readyAt
}

// execCycle issues ready, visible uops from a domain's queue into its
// functional units for one domain clock edge.
func (p *Processor) execCycle(now clock.Time, dom isa.ExecDomain) {
	d := p.exec[dom]
	freq := d.FreqMHz(now)
	v := p.voltageFor(int(dom), freq)
	meter := &p.execMeters[dom]

	units := p.aluPool[dom].size()
	if dom != isa.DomainLS { // the LS long pool is a structural dummy
		units += p.longPool[dom].size()
	}
	if d.Idle(now) { // Transmeta-style transition: domain stalls
		meter.Cycle(v, 0)
		meter.Leak(now, v)
		return
	}
	q := &p.queues[dom]
	if p.cfg.DeepSleep && q.empty() && p.inflight[dom] == 0 {
		// Domain sleep: nothing queued, nothing in flight — gate the
		// whole clock tree.
		factor := p.cfg.DeepSleepFactor
		if factor <= 0 {
			factor = 0.02
		}
		meter.CycleDeepGated(v, factor)
		meter.Leak(now, v)
		if !d.InTransition(now) {
			// Descheduled until a dispatch pushes work (or a frequency
			// command arrives): every skipped edge charges the deep-gated
			// rate.
			p.sleep(engExecBase+int(dom), meter.DeepIdleCharge(v, factor), clock.Forever, false)
		}
		return
	}

	period := d.PeriodForFreq(freq)
	width := p.cfg.IssueWidth
	if width > units {
		width = units
	}
	// Sleep-bound tracking (event mode): bound is the earliest time any
	// candidate can become issuable; noSleep marks a state the scan
	// cannot bound (a failed tryIssue retries — and re-touches the
	// cache — every cycle, and a conservatively-bounded operand inside
	// its cross-domain synchronization window re-polls every cycle). A
	// parked uop has no bound until its producer issues, so any parked
	// uop makes the domain wake on issue broadcasts.
	bound := clock.Forever
	noSleep := false
	issued := p.issued[:0]
	if q.count > q.parked {
		// Candidates are walked oldest first from the ROB head (every
		// queued uop is in the ROB). A uop its producer unparks is
		// looked at from the next edge on: the producers' waiter lists
		// are walked after the scan, and since every class's latency is
		// at least one cycle, none of those operands is ready before
		// then.
		it := q.candidates(p.rob.peek().seq)
		for len(issued) < width {
			s, ok := it.next()
			if !ok {
				break
			}
			u := q.slots[s]
			// Readiness is monotonic within the consuming domain
			// (visibility is fixed at dispatch, readyAt once the producer
			// issues, and now only advances), so a known not-before bound
			// skips the uop without any lookup, and an operand observed
			// ready is cleared to the sentinel and never looked up again.
			if u.stallUntil > now {
				if u.stallUntil < bound {
					bound = u.stallUntil
				}
				continue
			}
			if u.src1 != 0 {
				ok, at := p.srcReadyAt(u.src1, dom, now)
				if !ok {
					u.stallUntil = at
					if at <= now {
						noSleep = true
					} else if at < bound {
						bound = at
					}
					continue
				}
				u.src1 = 0
			}
			if u.src2 != 0 {
				ok, at := p.srcReadyAt(u.src2, dom, now)
				if !ok {
					u.stallUntil = at
					if at <= now {
						noSleep = true
					} else if at < bound {
						bound = at
					}
					continue
				}
				u.src2 = 0
			}
			if !p.tryIssue(u, dom, now, period) {
				noSleep = true
				continue // no free unit for this class; try younger ops
			}
			issued = append(issued, u)
		}
	}
	for _, u := range issued {
		q.remove(u)
		p.unparkWaiters(u)
	}
	meter.Cycle(v, float64(len(issued))/float64(units))
	meter.Leak(now, v)
	if len(issued) == 0 && !noSleep && bound > now && !d.InTransition(now) {
		p.sleep(engExecBase+int(dom), meter.IdleCharge(v), bound, q.parked > 0)
	}
}

// unparkWaiters walks the waiter list of u, which just issued: each
// consumer has one fewer unissued producer, and one with none left
// becomes a candidate of its queue.
func (p *Processor) unparkWaiters(u *uop) {
	for c := u.waiters; c != nil; {
		next := c.waitNext2
		if c.src1 == u.seq {
			next = c.waitNext1
		}
		if c.pending--; c.pending == 0 {
			p.queues[c.domain].unpark(c)
		}
		c = next
	}
	u.waiters = nil
}

// tryIssue books a functional unit and computes the uop's completion
// time. It reports false when no suitable unit is free.
func (p *Processor) tryIssue(u *uop, dom isa.ExecDomain, now clock.Time, period clock.Time) bool {
	class := u.inst.Class
	lat := clock.Time(class.Latency()) * period
	fixed := clock.Time(0)

	if class == isa.Load || class == isa.Store {
		if class == isa.Load && p.cfg.StoreForwarding && p.storeCounts.count(u.inst.Addr&^7) > 0 {
			// Store-to-load forwarding: the value comes straight from
			// the store queue; no cache access.
			p.forwarded++
			lat += clock.Time(p.cfg.Cache.L1Latency) * period
		} else {
			level := p.mem.Data(u.inst.Addr)
			if class == isa.Load && p.cfg.Prefetch && level != cache.LevelL1 {
				// Next-line prefetch into the hierarchy (stat-neutral).
				p.mem.PrefetchData(u.inst.Addr + uint64(p.cfg.Cache.L1DLine))
			}
			cycles, fixedNS := p.mem.DataLatency(level)
			if class == isa.Store {
				// Stores drain through the write buffer: address
				// generation plus L1 access; misses are absorbed.
				cycles = p.cfg.Cache.L1Latency
				fixedNS = 0
			}
			lat += clock.Time(cycles) * period
			fixed = clock.Time(fixedNS * float64(clock.Nanosecond))
		}
	}

	completion := now + lat + fixed
	pool := &p.aluPool[dom]
	if !class.Pipelined() || class == isa.IntMult || class == isa.FPMult {
		pool = &p.longPool[dom]
	}
	busyUntil := now + period // pipelined: unit accepts a new op next cycle
	if !class.Pipelined() {
		busyUntil = completion
	}
	if !pool.acquire(now, busyUntil) {
		return false
	}
	u.state = stateIssued
	u.readyAt = completion
	// Sleepers gated on a not-yet-issued producer now have a bound: no
	// operand of this uop can exist before its completion.
	p.eng.BroadcastIssue(completion)
	return true
}

// sampleCycle runs one tick of the 250 MHz sampling clock: record queue
// occupancies, consult the controllers, and actuate frequency changes.
func (p *Processor) sampleCycle(now clock.Time) {
	for dom := 0; dom < isa.NumExecDomains; dom++ {
		occ := p.queues[dom].count
		p.samplers[dom].Record(occ)
		d := p.exec[dom]
		if c := p.controllers[dom]; c != nil {
			seen := occ
			if s := p.sensors[dom]; s != nil {
				seen = s.Read(occ)
			}
			target, change := c.Observe(now, seen, d.FreqMHz(now))
			if a := p.actuators[dom]; a != nil {
				target, change = a.Filter(now, target, change)
				if due, pending := a.PendingDue(); pending {
					// Regulator latency as a single scheduled event: the
					// domain need not be awake before the deferred
					// command can land.
					p.eng.Schedule(due, clock.EvActuation, engExecBase+dom)
				}
			}
			if change {
				qt := p.cfg.Range.Quantize(target)
				p.uncappedMHz[dom] = qt
				before := d.Transitions()
				d.SetTarget(now, p.cappedMHz(qt))
				if cost := p.cfg.Transitions.EnergyPerTransitionJ; cost > 0 && d.Transitions() > before {
					// Regulator switching energy (ignored by the paper
					// because the capacitors are small; charged here
					// when the ablation enables it).
					p.execMeters[dom].AddJ(cost)
				}
				// A sleeping domain's precomputed idle charge assumes a
				// fixed voltage; a frequency transition invalidates it,
				// so the domain re-runs slow edges until the transition
				// completes.
				p.eng.Wake(engExecBase+dom, clock.EvFreqChange)
			}
		}
		p.recordFreq(isa.ExecDomain(dom), now, d.FreqMHz(now))
	}
	if p.cfg.ControlFrontEnd {
		occ := p.feQueue.Len()
		p.feSampler.Record(occ)
		if p.feController != nil {
			seen := occ
			if s := p.feSensor; s != nil {
				seen = s.Read(occ)
			}
			target, change := p.feController.Observe(now, seen, p.fe.FreqMHz(now))
			if a := p.feActuator; a != nil {
				target, change = a.Filter(now, target, change)
				if due, pending := a.PendingDue(); pending {
					p.eng.Schedule(due, clock.EvActuation, engFE)
				}
			}
			if change {
				p.fe.SetTarget(now, p.cfg.Range.Quantize(target))
				p.eng.Wake(engFE, clock.EvFreqChange)
			}
		}
	}
}

// cappedMHz applies the chip governor's frequency ceiling to an
// execution-domain target. With no cap in force it is the identity, so
// the single-core control path is untouched.
func (p *Processor) cappedMHz(mhz float64) float64 {
	if p.execCapMHz > 0 && mhz > p.execCapMHz {
		return p.execCapMHz
	}
	return mhz
}

// SetFreqCap imposes (or, with mhz <= 0, lifts) a chip-level frequency
// ceiling on the execution domains. The cap composes with per-domain
// control: each domain runs at min(controller target, cap), so the
// paper's adaptive reaction-time machinery keeps working underneath a
// chip power governor. The front end is left at its own target — the
// paper pins it at f_max, and starving dispatch would distort the very
// queue occupancies the domain controllers observe. Caps are quantized
// to the DVFS range like any controller target and actuate ideally
// (the chip governor bypasses the per-domain fault injectors).
func (p *Processor) SetFreqCap(now clock.Time, mhz float64) {
	if mhz <= 0 {
		p.execCapMHz = 0
	} else {
		p.execCapMHz = p.cfg.Range.Quantize(mhz)
	}
	for dom := 0; dom < isa.NumExecDomains; dom++ {
		d := p.exec[dom]
		eff := p.cappedMHz(p.uncappedMHz[dom])
		if eff == d.TargetMHz() {
			continue
		}
		before := d.Transitions()
		d.SetTarget(now, eff)
		if cost := p.cfg.Transitions.EnergyPerTransitionJ; cost > 0 && d.Transitions() > before {
			p.execMeters[dom].AddJ(cost)
		}
		// Same invalidation as sampleCycle: a sleeping domain's
		// precomputed idle charge assumes a fixed voltage.
		p.eng.Wake(engExecBase+dom, clock.EvFreqChange)
	}
}

// EnergySnapshotJ is the running chip-governor power sensor: total
// energy consumed so far across every domain meter. Leakage is
// integrated up to each meter's last consumed edge, which depends only
// on the simulated event stream — never on wall clock or worker
// scheduling — so snapshots taken at an epoch barrier are bit-identical
// across worker-pool sizes.
func (p *Processor) EnergySnapshotJ() float64 {
	total := p.feMeter.TotalJ()
	if p.fetchDom != nil {
		total += p.fetchMeter.TotalJ()
	}
	for d := 0; d < isa.NumExecDomains; d++ {
		total += p.execMeters[d].TotalJ()
	}
	return total
}

// RetiredInsts reports how many instructions have committed so far.
func (p *Processor) RetiredInsts() int64 { return p.retired }

// recordFreq appends a frequency-trace point when the frequency moved.
func (p *Processor) recordFreq(dom isa.ExecDomain, now clock.Time, mhz float64) {
	if p.cfg.FreqTraceLimit > 0 && len(p.freqTrace[dom]) >= p.cfg.FreqTraceLimit {
		return
	}
	if last := p.lastTraceF[dom]; len(p.freqTrace[dom]) > 0 && abs(mhz-last) < 0.5 {
		return
	}
	p.lastTraceF[dom] = mhz
	p.freqTrace[dom] = append(p.freqTrace[dom], FreqPoint{Insts: p.retired, MHz: mhz})
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// collect assembles the Result at end time.
func (p *Processor) collect(end clock.Time) *Result {
	res := &Result{
		Benchmark:       p.src.Name(),
		Domains:         make(map[string]DomainStats, 4),
		QueueSamples:    make(map[string]Series, 3),
		FreqTrace:       make(map[string]FreqSeries, 3),
		QueueFullStalls: make(map[string]uint64, 3),
	}
	total := 0.0
	execSec := end.Seconds()
	type domainMeter struct {
		name string
		m    *power.Meter
		d    *clock.Domain
	}
	meters := make([]domainMeter, 0, 5)
	meters = append(meters, domainMeter{NameFrontEnd, &p.feMeter, p.fe})
	if p.fetchDom != nil {
		meters = append(meters, domainMeter{NameFetch, &p.fetchMeter, p.fetchDom})
	}
	meters = append(meters,
		domainMeter{NameInt, &p.execMeters[isa.DomainInt], p.exec[isa.DomainInt]},
		domainMeter{NameFP, &p.execMeters[isa.DomainFP], p.exec[isa.DomainFP]},
		domainMeter{NameLS, &p.execMeters[isa.DomainLS], p.exec[isa.DomainLS]},
	)
	for _, dm := range meters {
		name, m, d := dm.name, dm.m, dm.d
		// Final leakage integration at the domain's closing voltage.
		var v float64
		switch name {
		case NameFetch:
			v = p.cfg.Range.MaxV
		case NameFrontEnd:
			v = p.feVoltage(end)
		default:
			v = p.cfg.Range.VoltageFor(d.FreqMHz(end))
		}
		m.Leak(end, v)
		ds := DomainStats{
			EnergyJ:      m.TotalJ(),
			DynamicJ:     m.DynamicJ(),
			LeakageJ:     m.LeakageJ(),
			Cycles:       d.Cycles(),
			Transitions:  d.Transitions(),
			SlewTime:     d.SlewTime(),
			MeanActivity: m.MeanActivity(),
		}
		if execSec > 0 {
			ds.MeanFreqMHz = float64(d.Cycles()) / execSec / 1e6
		}
		res.Domains[name] = ds
		total += m.TotalJ()
	}
	for dom := 0; dom < isa.NumExecDomains; dom++ {
		name := p.exec[dom].Name()
		samples := p.samplers[dom].Samples()
		res.QueueSamples[name] = NewSeries(samples)
		res.FreqTrace[name] = p.freqTrace[dom]
		res.QueueFullStalls[name] = p.queues[dom].fullStalls
		ds := res.Domains[name]
		if len(samples) > 0 {
			sum := 0.0
			for _, s := range samples {
				sum += float64(s)
			}
			ds.MeanOccupancy = sum / float64(len(samples))
			res.Domains[name] = ds
		}
	}
	res.Metrics = power.Metrics{
		EnergyJ:      total,
		ExecTime:     end,
		Instructions: p.retired,
	}
	if fc := p.fe.Cycles(); fc > 0 {
		res.IPC = float64(p.retired) / float64(fc)
	}
	if p.branches > 0 {
		res.BranchMispredictRate = float64(p.mispredicts) / float64(p.branches)
	}
	if p.cfg.ControlFrontEnd {
		res.QueueSamples["FetchQ"] = NewSeries(p.feSampler.Samples())
	}
	res.RetiredByClass = make(map[string]int64, isa.NumClasses)
	for c := 0; c < isa.NumClasses; c++ {
		if p.retiredByCls[c] > 0 {
			res.RetiredByClass[isa.Class(c).String()] = p.retiredByCls[c]
		}
	}
	res.ForwardedLoads = p.forwarded
	res.L1DMissRate = p.mem.L1D().Stats().MissRate()
	res.L1IMissRate = p.mem.L1I().Stats().MissRate()
	res.L2MissRate = p.mem.L2().Stats().MissRate()
	return res
}

package clock

import "fmt"

// EventKind labels the cause of a domain's wake bound. The engine uses
// it only to attribute wakes in DomainEngineStats.
type EventKind uint8

const (
	// EvDeadline is a self-scheduled recheck bound: a domain that found
	// nothing to do computed the earliest time anything it is waiting on
	// (operand readiness, entry visibility, a fetch-block window) can
	// change, and asked to be woken then.
	EvDeadline EventKind = iota
	// EvQueuePush wakes the consumer of a synchronizing queue when an
	// upstream domain enqueues into it.
	EvQueuePush
	// EvQueueDrain wakes a producer blocked on a full downstream
	// structure when the consumer frees a slot (or, equivalently, when
	// the pipeline stage it feeds consumes the entry it was waiting on).
	EvQueueDrain
	// EvOperandReady wakes sleepers that were blocked on a producer
	// that had not yet issued: once it issues, its completion time is
	// known and broadcast as the wake bound.
	EvOperandReady
	// EvFreqChange wakes a domain whose frequency target changed (DVFS
	// actuation or frequency-transition completion): its precomputed
	// idle energy charge is stale and its work conditions may differ.
	EvFreqChange
	// EvActuation wakes a domain when a deferred actuator command
	// (regulator latch delay plus PLL relock jitter) comes due. A newer
	// deferred command reschedules the wake.
	EvActuation
	numEventKinds
)

// NumEventKinds is the number of distinct event kinds.
const NumEventKinds = int(numEventKinds)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvDeadline:
		return "deadline"
	case EvQueuePush:
		return "queue-push"
	case EvQueueDrain:
		return "queue-drain"
	case EvOperandReady:
		return "operand-ready"
	case EvFreqChange:
		return "freq-change"
	case EvActuation:
		return "actuation"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// DomainEngineStats counts what the engine did for one domain.
type DomainEngineStats struct {
	// SlowEdges is the number of clock edges on which the domain's full
	// cycle work ran.
	SlowEdges uint64
	// SkippedEdges is the number of clock edges consumed while the
	// domain was descheduled: the clock (and its jitter stream) still
	// advanced, but the per-cycle work was provably a no-op and was
	// replaced by the precomputed idle energy charge.
	SkippedEdges uint64
	// Sleeps counts transitions into the descheduled state.
	Sleeps uint64
	// Wakes counts wake events by kind.
	Wakes [NumEventKinds]uint64
}

// domainState is the engine's per-domain scheduling state.
type domainState struct {
	asleep bool
	// wakeAt is the domain's wake bound: the earliest time anything
	// scheduled for it can change its work (Forever when the domain
	// waits for an external wake only). The first edge at or after
	// wakeAt runs the full cycle work again.
	wakeAt Time
	// wakeKind remembers which kind set wakeAt, for wake accounting.
	wakeKind EventKind
	// wakeOnIssue marks sleepers whose wake bound involved a producer
	// that had not issued yet: any issue broadcast can lower their bound.
	wakeOnIssue bool
	stats       DomainEngineStats
}

// Engine schedules a set of clock domains deterministically. It
// arbitrates clock edges (earliest pending edge wins, ties break by
// registration order) and keeps one wake bound per domain that lets
// callers deschedule a domain whose cycle work is provably a no-op:
// the domain's clock still advances edge by edge — edge times and the
// per-edge jitter stream are part of the simulator's bit-exact
// contract — but each descheduled edge is consumed through IdleAdvance
// instead of running the domain's cycle work, until the bound is due
// or Wake reschedules it at once. A scheduled wake (queue push, operand
// readiness, frequency change, actuation, or a self-scheduled deadline)
// only ever lowers the bound.
//
// Determinism rules:
//   - Edge arbitration: earliest edge first; equal times break by
//     registration order.
//   - A wake bound keeps the kind of the first wake scheduled at its
//     time; a later wake at the same time does not replace it.
//   - No wall-clock time, no map iteration, no randomness.
//
// Registered domains are owned by the engine: their clocks must only
// advance through Engine calls, which keep the cached next-edge times
// in sync. The cache turns arbitration into a scan of
// one flat Time array instead of a pointer chase into every Domain on
// every edge.
//
// The per-domain state sits in fixed arrays inside the Engine, so an
// owner that holds its engine by value (each mcd.Processor does) keeps
// all of it in the owner's own allocation, never in a small heap
// object the allocator could place beside another core's. The zero
// Engine is ready for Add.
type Engine struct {
	n       int
	domains [MaxDomains]*Domain
	state   [MaxDomains]domainState
	edges   [MaxDomains]Time // cached Domain.NextEdge, maintained by Advance/IdleAdvance
	// issueSubs counts sleepers subscribed to issue broadcasts, so
	// BroadcastIssue on the issue hot path is a single compare when
	// nobody is listening.
	issueSubs int
}

// MaxDomains bounds the domains one Engine schedules; an MCD machine
// has at most six (split front end, three execution domains and the
// sampling clock).
const MaxDomains = 8

// Add registers another domain and returns its index. Registration
// order is the arbitration tie-break. It panics past MaxDomains.
func (e *Engine) Add(d *Domain) int {
	if e.n == MaxDomains {
		panic(fmt.Sprintf("clock: Add of domain %q to an engine of %d domains", d.Name(), MaxDomains))
	}
	i := e.n
	e.n++
	e.domains[i] = d
	e.state[i] = domainState{wakeAt: Forever}
	e.edges[i] = d.NextEdge()
	return i
}

// Len returns the number of registered domains.
func (e *Engine) Len() int { return e.n }

// Domain returns the domain at index i.
func (e *Engine) Domain(i int) *Domain { return e.domains[i] }

// Next returns the index of the domain with the earliest pending clock
// edge (sleeping domains included: their clocks keep running) and that
// edge's time. Ties break by registration order. It returns (-1,
// Forever) when no domain is registered.
func (e *Engine) Next() (int, Time) {
	best := -1
	bestT := Forever
	for i, t := range e.edges[:e.n] {
		if t < bestT {
			best, bestT = i, t
		}
	}
	return best, bestT
}

// Advance consumes domain i's pending edge as a full (slow) edge and
// returns its time.
func (e *Engine) Advance(i int) Time {
	e.state[i].stats.SlowEdges++
	d := e.domains[i]
	t := d.Advance()
	e.edges[i] = d.NextEdge()
	return t
}

// IdleAdvance consumes domain i's pending edge as a descheduled edge:
// the clock (and jitter stream) advances, the cycle work is skipped.
// The caller owns charging the domain's precomputed idle energy.
func (e *Engine) IdleAdvance(i int) Time {
	e.state[i].stats.SkippedEdges++
	d := e.domains[i]
	t := d.Advance()
	e.edges[i] = d.NextEdge()
	return t
}

// IdleHorizon returns the earliest future time at which the engine's
// scheduling state can change: the minimum over awake domains' next
// edges and sleeping domains' wake bounds. Sleep and wake state only
// mutates during slow-edge cycle work, and no slow edge can run before
// the horizon, so every sleeping domain's clock edge strictly before it
// is provably idle: callers may consume those edges in a tight batch
// (IdleAdvance plus the idle energy charge) without re-arbitrating
// after each one.
func (e *Engine) IdleHorizon() Time {
	h := Forever
	for i := range e.state[:e.n] {
		st := &e.state[i]
		if st.asleep {
			if st.wakeAt < h {
				h = st.wakeAt
			}
		} else if t := e.edges[i]; t < h {
			h = t
		}
	}
	return h
}

// Asleep reports whether domain i is descheduled.
func (e *Engine) Asleep(i int) bool { return e.state[i].asleep }

// WakeAt returns the earliest live wake bound for domain i (Forever
// when it waits for an external wake only).
func (e *Engine) WakeAt(i int) Time { return e.state[i].wakeAt }

// Sleep deschedules domain i until a wake is due. A finite `until`
// self-schedules an EvDeadline wake (the caller's recheck bound);
// wakeOnIssue additionally subscribes the domain to EvOperandReady
// broadcasts. The caller must only sleep a domain whose cycle work is a
// no-op until one of its wake conditions fires.
func (e *Engine) Sleep(i int, until Time, wakeOnIssue bool) {
	st := &e.state[i]
	if st.asleep {
		panic(fmt.Sprintf("clock: Sleep on already-sleeping domain %q", e.domains[i].Name()))
	}
	st.asleep = true
	st.wakeAt = Forever
	st.wakeOnIssue = wakeOnIssue
	if wakeOnIssue {
		e.issueSubs++
	}
	st.stats.Sleeps++
	if until < Forever {
		e.Schedule(until, EvDeadline, i)
	}
}

// Wake immediately reschedules domain i: its next edge runs the full
// cycle work. Waking an awake domain is a no-op, so callers can wake
// unconditionally on state changes. The domain's wake bound is cleared.
func (e *Engine) Wake(i int, kind EventKind) {
	st := &e.state[i]
	if !st.asleep {
		return
	}
	st.asleep = false
	if st.wakeOnIssue {
		st.wakeOnIssue = false
		e.issueSubs--
	}
	st.wakeAt = Forever
	st.stats.Wakes[kind]++
}

// Schedule lowers sleeping domain i's wake bound to `at`, attributed to
// kind. A wake that cannot lower the bound (domain awake, or a wake at
// the same time or earlier already scheduled) is a no-op, so the first
// wake scheduled at a time keeps its kind. The first edge at or after
// the bound wakes the domain.
func (e *Engine) Schedule(at Time, kind EventKind, i int) {
	st := &e.state[i]
	if !st.asleep || at >= st.wakeAt {
		return
	}
	st.wakeAt = at
	st.wakeKind = kind
}

// BroadcastIssue lowers the wake bound of every wakeOnIssue sleeper to
// readyAt: a producer with an unknown completion time just issued, so
// consumers blocked on it can be rechecked once its result is due.
func (e *Engine) BroadcastIssue(readyAt Time) {
	if e.issueSubs == 0 {
		return
	}
	for i := range e.state[:e.n] {
		if e.state[i].wakeOnIssue {
			e.Schedule(readyAt, EvOperandReady, i)
		}
	}
}

// WakeDue wakes domain i from an expired bound (its next edge reached
// wakeAt), attributing the wake to the kind that set the bound.
func (e *Engine) WakeDue(i int) { e.Wake(i, e.state[i].wakeKind) }

// Stats returns domain i's scheduling counters.
func (e *Engine) Stats(i int) DomainEngineStats { return e.state[i].stats }

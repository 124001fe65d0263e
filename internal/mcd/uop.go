package mcd

import (
	"mcddvfs/internal/clock"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/layout"
)

// uopState tracks a micro-op through the pipeline.
type uopState uint8

const (
	stateDispatched uopState = iota // in ROB + issue queue, waiting
	stateIssued                     // executing, or done and awaiting commit
)

// uop is one in-flight dynamic instruction.
type uop struct {
	seq    uint64
	inst   isa.Inst
	domain isa.ExecDomain
	state  uopState

	// pending counts the producers of this uop's operands that have
	// not issued yet. While it is above zero the uop is parked: it is
	// on those producers' waiter lists, off its issue queue's candidate
	// set, and the issue scan never looks at it.
	pending uint8

	// src1 and src2 are producer sequence numbers (0 = operand ready).
	src1, src2 uint64

	// readyAt is the global time the result becomes available to
	// same-domain consumers; it is written once, when the uop issues.
	readyAt clock.Time

	// stallUntil is an issue-scan hint: a lower bound on when this
	// queued uop can issue. Dispatch seeds it with the time the uop
	// becomes visible across the synchronization interface; a failed
	// readiness check against an issued producer raises it to that
	// producer's readyAt. The scan skips the uop without window lookups
	// until then. Purely an optimization: visibility is fixed at
	// dispatch, and the producer's readyAt is written once at issue and
	// bounds both the forwarding and the commit path, so the hint is
	// never late.
	stallUntil clock.Time

	// waiters heads the list of parked consumers of this uop's result.
	// A consumer links on through waitNext1 when this uop produces its
	// src1, else through waitNext2.
	waiters              *uop
	waitNext1, waitNext2 *uop

	// Branch bookkeeping.
	predTaken  bool
	predTarget uint64
	mispredict bool

	// hasReg marks that the uop holds a physical register from
	// dispatch until commit.
	hasReg bool
}

// window is a seq-indexed ring of in-flight uops used for producer
// lookups. Producers fall out of the window when they commit; a lookup
// that misses means the producer has already committed, i.e. the
// operand is ready.
type window struct {
	slots []*uop
	mask  uint64
}

// newWindow creates a window with capacity n (rounded up to a power of
// two). n must exceed the ROB size plus the maximum dependency
// distance so that an in-flight producer can never be evicted early.
func newWindow(n int) window {
	size := 1
	for size < n {
		size <<= 1
	}
	return window{slots: layout.Slice[*uop](size), mask: uint64(size - 1)}
}

func (w *window) insert(u *uop) { w.slots[u.seq&w.mask] = u }

func (w *window) remove(u *uop) {
	i := u.seq & w.mask
	if w.slots[i] == u {
		w.slots[i] = nil
	}
}

// lookup returns the in-flight uop with the given seq, or nil if it has
// committed (or never existed).
func (w *window) lookup(seq uint64) *uop {
	u := w.slots[seq&w.mask]
	if u != nil && u.seq == seq {
		return u
	}
	return nil
}

// rob is the in-order reorder buffer.
type rob struct {
	entries []*uop
	head    int
	count   int
}

func newROB(size int) rob { return rob{entries: layout.Slice[*uop](size)} }

func (r *rob) full() bool  { return r.count == len(r.entries) }
func (r *rob) empty() bool { return r.count == 0 }

func (r *rob) push(u *uop) {
	if r.full() {
		panic("mcd: ROB overflow")
	}
	i := r.head + r.count
	if n := len(r.entries); i >= n { // head+count < 2n always holds
		i -= n
	}
	r.entries[i] = u
	r.count++
}

func (r *rob) peek() *uop {
	if r.empty() {
		return nil
	}
	return r.entries[r.head]
}

func (r *rob) pop() *uop {
	u := r.peek()
	if u == nil {
		panic("mcd: ROB underflow")
	}
	r.entries[r.head] = nil
	if r.head++; r.head == len(r.entries) {
		r.head = 0
	}
	r.count--
	return u
}

// funcUnit models one functional unit's availability.
type funcUnit struct {
	freeAt clock.Time
}

// unitPool is a group of identical functional units.
type unitPool struct {
	units []funcUnit
}

// acquire finds a unit free at time now and books it until busyUntil.
// It reports whether a unit was available.
func (p *unitPool) acquire(now, busyUntil clock.Time) bool {
	for i := range p.units {
		if p.units[i].freeAt <= now {
			p.units[i].freeAt = busyUntil
			return true
		}
	}
	return false
}

func (p *unitPool) size() int { return len(p.units) }

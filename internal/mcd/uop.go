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
	stateIssued                     // executing in a functional unit
	stateDone                       // result available, awaiting commit
)

// uop is one in-flight dynamic instruction.
type uop struct {
	seq    uint64
	inst   isa.Inst
	domain isa.ExecDomain
	state  uopState

	// src1 and src2 are producer sequence numbers (0 = operand ready).
	src1, src2 uint64

	// readyAt is the global time the result becomes available to
	// same-domain consumers once state == stateDone.
	readyAt clock.Time

	// stallUntil is an issue-scan hint: a lower bound on when an
	// operand of this (still-dispatched) uop can become ready, learned
	// from a failed readiness check against an already-issued producer.
	// The scan skips the uop without window lookups until then. Zero
	// means no bound is known. Purely an optimization: the producer's
	// readyAt is written once at issue and bounds both the forwarding
	// and the commit path, so the hint is never late.
	stallUntil clock.Time

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

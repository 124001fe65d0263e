// Package queue implements the bounded inter-domain interface/issue
// queues of the MCD processor. A queue lives at a clock-domain boundary:
// the producer (front end) inserts entries that become visible to the
// consumer domain only after the synchronization window has elapsed,
// modeling the arbitration-based synchronization interface used by the
// MCD implementation the paper builds on. Occupancy is the signal every
// DVFS controller in the paper observes.
package queue

import (
	"fmt"

	"mcddvfs/internal/clock"
)

// SyncPolicy selects the inter-domain synchronization interface design
// (Section 2 of the paper surveys both families).
type SyncPolicy int

const (
	// SyncArbitration models the arbitration-based interface of
	// Sjogren & Myers used by the Semeraro et al. MCD implementation:
	// every transfer may need to wait out the synchronization window.
	SyncArbitration SyncPolicy = iota
	// SyncTokenRing models token-ring FIFOs (Chelcea & Nowick), which
	// have "no synchronization cost if the FIFO is neither full nor
	// empty": only entries written into an empty queue (a waiting
	// consumer) pay the window.
	SyncTokenRing
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncArbitration:
		return "arbitration"
	case SyncTokenRing:
		return "token-ring"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Queue is a bounded buffer of entries with synchronization-delayed
// visibility. Entries are kept in insertion (program) order; consumers
// may remove any visible entry, which is how an out-of-order issue
// window behaves. The zero Queue is not usable; call New.
//
// Storage is a fixed ring sized at construction: logical index i lives
// at physical slot (head+i)&mask, so front removal — the common case at
// every dispatch — is O(1) instead of a memmove of the whole buffer,
// and no path allocates after construction.
type Queue[T any] struct {
	capacity int
	syncWin  clock.Time
	policy   SyncPolicy

	buf     []T
	visible []clock.Time // per-entry visibility time
	head    int
	count   int
	mask    int

	// Statistics.
	pushes    uint64
	pops      uint64
	fullStall uint64
}

// NewWithPolicy creates a queue with the given capacity,
// synchronization window and interface design. A zero window makes
// entries visible immediately.
func NewWithPolicy[T any](name string, capacity int, syncWin clock.Time, policy SyncPolicy) *Queue[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue %q: non-positive capacity %d", name, capacity))
	}
	if syncWin < 0 {
		panic(fmt.Sprintf("queue %q: negative sync window", name))
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Queue[T]{
		capacity: capacity,
		syncWin:  syncWin,
		policy:   policy,
		buf:      make([]T, size),
		visible:  make([]clock.Time, size),
		mask:     size - 1,
	}
}

// Len returns the current occupancy, including entries not yet visible
// to the consumer. This is the value the occupancy sampler reads: the
// physical queue fullness.
func (q *Queue[T]) Len() int { return q.count }

// Full reports whether a Push would fail.
func (q *Queue[T]) Full() bool { return q.count >= q.capacity }

// Empty reports whether the queue holds no entries at all.
func (q *Queue[T]) Empty() bool { return q.count == 0 }

// slot maps a logical index to its physical ring slot.
func (q *Queue[T]) slot(i int) int { return (q.head + i) & q.mask }

// Push inserts v at time now. It reports false (and counts a full-queue
// stall) when the queue is full. Under the arbitration interface every
// entry becomes visible at now + the synchronization window; under the
// token-ring interface only entries written into an empty queue pay it.
func (q *Queue[T]) Push(now clock.Time, v T) bool {
	if q.Full() {
		q.fullStall++
		return false
	}
	vis := now
	if q.policy == SyncArbitration || q.count == 0 {
		vis += q.syncWin
	}
	i := q.slot(q.count)
	q.buf[i] = v
	q.visible[i] = vis
	q.count++
	q.pushes++
	return true
}

// EntryAt returns the entry at index i and whether it is visible to the
// consumer at time now. It is the allocation-free building block for
// hot-path scans such as the issue window's.
func (q *Queue[T]) EntryAt(i int, now clock.Time) (T, bool) {
	s := q.slot(i)
	if q.visible[s] > now {
		var zero T
		return zero, false
	}
	return q.buf[s], true
}

// VisibleFrom returns the time at which the entry at index i becomes
// visible to the consumer: the wake bound an event-driven consumer
// sleeps on when the entry is still inside its synchronization window.
func (q *Queue[T]) VisibleFrom(i int) clock.Time { return q.visible[q.slot(i)] }

// RemoveAt deletes the entry at index i, preserving order. It shifts
// whichever side of the ring is shorter; removing the front entry (the
// dispatch hot path) moves nothing.
func (q *Queue[T]) RemoveAt(i int) {
	var zero T
	if i <= q.count-1-i {
		// Shift the prefix [0,i) up one slot, then advance head.
		for j := i; j >= 1; j-- {
			d, s := q.slot(j), q.slot(j-1)
			q.buf[d] = q.buf[s]
			q.visible[d] = q.visible[s]
		}
		q.buf[q.head] = zero
		q.head = (q.head + 1) & q.mask
	} else {
		// Shift the suffix (i,count) down one slot.
		for j := i; j < q.count-1; j++ {
			d, s := q.slot(j), q.slot(j+1)
			q.buf[d] = q.buf[s]
			q.visible[d] = q.visible[s]
		}
		q.buf[q.slot(q.count-1)] = zero
	}
	q.count--
	q.pops++
}

// FrontPtr returns a pointer to the oldest entry when it is visible at
// time now, without copying the (possibly large) element. The pointer
// aims into the ring and is invalidated by any queue mutation; callers
// must finish reading before mutating.
func (q *Queue[T]) FrontPtr(now clock.Time) (*T, bool) {
	if q.count == 0 || q.visible[q.head] > now {
		return nil, false
	}
	return &q.buf[q.head], true
}

// Stats returns cumulative pushes, pops, and full-queue stalls.
func (q *Queue[T]) Stats() (pushes, pops, fullStalls uint64) {
	return q.pushes, q.pops, q.fullStall
}

// Package queue holds the inter-domain interface of the MCD processor:
// the synchronization policies, the bounded fetch-buffer FIFO and the
// occupancy sampler. A queue lives at a clock-domain boundary: the
// producer inserts entries that become visible to the consumer domain
// only after the synchronization window has elapsed, modeling the
// arbitration-based synchronization interface used by the MCD
// implementation the paper builds on. The issue queues (internal/mcd)
// apply the same policies. Occupancy is the signal every DVFS
// controller in the paper observes.
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

// VisibleAt returns when an entry pushed at now becomes visible to the
// consumer across a synchronization window win: under the arbitration
// interface every entry pays the window; under the token-ring
// interface only an entry written into an empty queue does.
func (p SyncPolicy) VisibleAt(now, win clock.Time, empty bool) clock.Time {
	if p == SyncArbitration || empty {
		return now + win
	}
	return now
}

// Queue is a bounded FIFO of entries with synchronization-delayed
// visibility: the fetch buffer between the fetch and dispatch stages.
// Entries leave from the front, in insertion order. The zero Queue is
// not usable; call New.
//
// Storage is a fixed ring sized at construction: logical index i lives
// at physical slot (head+i)&mask, so a pop is O(1) and no path
// allocates after construction.
type Queue[T any] struct {
	capacity int
	syncWin  clock.Time
	policy   SyncPolicy

	buf     []T
	visible []clock.Time // per-entry visibility time
	head    int
	count   int
	mask    int
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

// Push inserts v at time now, visible to the consumer as the queue's
// policy says (SyncPolicy.VisibleAt). It reports false when the queue
// is full.
func (q *Queue[T]) Push(now clock.Time, v T) bool {
	if q.Full() {
		return false
	}
	i := q.slot(q.count)
	q.buf[i] = v
	q.visible[i] = q.policy.VisibleAt(now, q.syncWin, q.count == 0)
	q.count++
	return true
}

// VisibleFrom returns the time at which the entry at index i becomes
// visible to the consumer: the wake bound an event-driven consumer
// sleeps on when the entry is still inside its synchronization window.
func (q *Queue[T]) VisibleFrom(i int) clock.Time { return q.visible[q.slot(i)] }

// PopFront deletes the oldest entry. The queue must not be empty.
func (q *Queue[T]) PopFront() {
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & q.mask
	q.count--
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

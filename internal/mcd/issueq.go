package mcd

import (
	"math/bits"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/layout"
	"mcddvfs/internal/queue"
)

// issueQueue is one execution domain's issue queue, indexed by sequence
// number: a queued uop sits at slot seq&mask for its whole stay. The
// ring has at least ROBSize slots and every queued uop is in the ROB,
// whose sequence numbers are consecutive, so two queued uops never
// share a slot, and walking the slots from the ROB head's slot (with
// wraparound) visits them in program order.
//
// cand holds one bit per slot: a queued uop whose producers have all
// issued (pending == 0), the only uops the issue scan looks at. A
// parked uop (pending > 0) is counted in parked and gets its bit when
// its last producer issues. Removal clears a bit; nothing shifts.
type issueQueue struct {
	slots []*uop
	cand  []uint64
	mask  uint64

	count    int // queued uops, parked included: the sampled occupancy
	parked   int // queued uops with pending > 0
	capacity int

	syncWin clock.Time
	policy  queue.SyncPolicy
	// fullStalls counts dispatch attempts refused by a full queue.
	fullStalls uint64
}

// newIssueQueue builds a queue of the given capacity whose ring covers
// robSize in-flight sequence numbers.
func newIssueQueue(capacity, robSize int, syncWin clock.Time, policy queue.SyncPolicy) issueQueue {
	size := 64
	for size < robSize {
		size <<= 1
	}
	return issueQueue{
		slots:    layout.Slice[*uop](size),
		cand:     layout.Slice[uint64](size / 64),
		mask:     uint64(size - 1),
		capacity: capacity,
		syncWin:  syncWin,
		policy:   policy,
	}
}

func (q *issueQueue) full() bool  { return q.count >= q.capacity }
func (q *issueQueue) empty() bool { return q.count == 0 }

// push queues u at time now; u cannot issue before it is visible
// across the synchronization interface. The caller has checked full
// and set u.pending.
func (q *issueQueue) push(now clock.Time, u *uop) {
	u.stallUntil = q.policy.VisibleAt(now, q.syncWin, q.count == 0)
	s := u.seq & q.mask
	q.slots[s] = u
	if u.pending == 0 {
		q.cand[s>>6] |= 1 << (s & 63)
	} else {
		q.parked++
	}
	q.count++
}

// unpark makes the parked uop u a candidate: its last producer issued.
func (q *issueQueue) unpark(u *uop) {
	s := u.seq & q.mask
	q.cand[s>>6] |= 1 << (s & 63)
	q.parked--
}

// remove takes the issued candidate u off the queue.
func (q *issueQueue) remove(u *uop) {
	s := u.seq & q.mask
	q.cand[s>>6] &^= 1 << (s & 63)
	q.count--
}

// candIter walks a queue's candidate slots in program order: from
// the start slot to the end of the ring, then from slot 0 back up to
// it. It reads each word of the candidate set when it reaches it.
type candIter struct {
	cand  []uint64
	wmask uint64 // len(cand)-1; len(cand) is a power of two
	wi    uint64 // the word being walked
	left  uint64 // words still to walk after wi
	w     uint64 // wi's candidate bits not yet returned
	low   uint64 // the start word's bits below the start slot, walked last
}

// candidates starts a walk at the slot of sequence number start,
// normally the ROB head's.
func (q *issueQueue) candidates(start uint64) candIter {
	s := start & q.mask
	wi := s >> 6
	low := uint64(1)<<(s&63) - 1
	return candIter{
		cand:  q.cand,
		wmask: uint64(len(q.cand)) - 1,
		wi:    wi,
		left:  uint64(len(q.cand)),
		w:     q.cand[wi] &^ low,
		low:   low,
	}
}

// next returns the next candidate slot, or false when the walk is done.
func (it *candIter) next() (uint64, bool) {
	for it.w == 0 {
		if it.left == 0 {
			return 0, false
		}
		it.left--
		it.wi = (it.wi + 1) & it.wmask
		it.w = it.cand[it.wi]
		if it.left == 0 {
			it.w &= it.low
		}
	}
	k := uint64(bits.TrailingZeros64(it.w))
	it.w &= it.w - 1
	return it.wi<<6 | k, true
}

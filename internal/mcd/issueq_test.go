package mcd

import (
	"context"
	"math/bits"
	"slices"
	"testing"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/queue"
	"mcddvfs/internal/trace"
)

// TestClassLatencyAtLeastOneCycle pins what makes the issue scan's
// candidate walk exact: a uop a producer unparks mid-scan is looked at
// from the next edge on, which is only right if no operand can be
// ready in the cycle its producer issues.
func TestClassLatencyAtLeastOneCycle(t *testing.T) {
	for c := 0; c < isa.NumClasses; c++ {
		if lat := isa.Class(c).Latency(); lat < 1 {
			t.Errorf("%v latency %d cycles, want at least 1", isa.Class(c), lat)
		}
	}
}

// walk returns the sequence numbers of q's candidates in walk order
// from start.
func walk(q *issueQueue, start uint64) []uint64 {
	var out []uint64
	it := q.candidates(start)
	for {
		s, ok := it.next()
		if !ok {
			return out
		}
		out = append(out, q.slots[s].seq)
	}
}

// TestCandidatesWalkInProgramOrder fills ROB-sized windows of sequence
// numbers that wrap the ring at every offset and checks that the walk
// from the oldest visits exactly the candidates, oldest first, before
// and after parked uops are unparked and issued ones removed.
func TestCandidatesWalkInProgramOrder(t *testing.T) {
	for _, robSize := range []int{8, 80, 128, 300} {
		ring := newIssueQueue(robSize, robSize, 0, queue.SyncArbitration).mask + 1
		if ring < uint64(robSize) {
			t.Fatalf("ROB %d: ring of %d slots", robSize, ring)
		}
		for _, head := range []uint64{1, 60, ring - 1, ring, 5*ring + 63, 7*ring + 64} {
			q := newIssueQueue(robSize, robSize, 0, queue.SyncArbitration)
			uops := make([]uop, robSize)
			var want []uint64
			for i := range uops {
				u := &uops[i]
				u.seq = head + uint64(i)
				if i%3 == 1 {
					u.pending = 1
				} else if i%5 != 4 { // leave some slots empty
					want = append(want, u.seq)
				}
				if u.pending > 0 || i%5 != 4 {
					q.push(0, u)
				}
			}
			if got := walk(&q, head); !slices.Equal(got, want) {
				t.Fatalf("ROB %d, head %d: walk %v, want %v", robSize, head, got, want)
			}
			// Unpark every parked uop and remove every other candidate.
			want = want[:0]
			for i := range uops {
				u := &uops[i]
				switch {
				case u.pending > 0:
					u.pending = 0
					q.unpark(u)
					want = append(want, u.seq)
				case i%5 == 4:
				case i%2 == 0:
					q.remove(u)
				default:
					want = append(want, u.seq)
				}
			}
			if got := walk(&q, head); !slices.Equal(got, want) {
				t.Fatalf("ROB %d, head %d, after unpark and remove: walk %v, want %v", robSize, head, got, want)
			}
			if q.parked != 0 || q.count != len(want) {
				t.Fatalf("ROB %d, head %d: %d parked, count %d, want 0 and %d", robSize, head, q.parked, q.count, len(want))
			}
		}
	}
}

// TestIssueQueueVisibility: a pushed uop's issue bound starts at its
// visibility time, past the synchronization window under arbitration
// and only for a push into an empty queue under the token ring.
func TestIssueQueueVisibility(t *testing.T) {
	const win = 300 * clock.Picosecond
	for _, c := range []struct {
		policy queue.SyncPolicy
		want   [2]clock.Time
	}{
		{queue.SyncArbitration, [2]clock.Time{1000 + win, 1100 + win}},
		{queue.SyncTokenRing, [2]clock.Time{1000 + win, 1100}},
	} {
		q := newIssueQueue(4, 80, win, c.policy)
		a, b := &uop{seq: 1}, &uop{seq: 2}
		q.push(1000, a)
		q.push(1100, b)
		if got := [2]clock.Time{a.stallUntil, b.stallUntil}; got != c.want {
			t.Errorf("%v: visible from %v, want %v", c.policy, got, c.want)
		}
	}
}

// checkIssueQueues holds p's issue queues to their invariants: every
// dispatched, unissued uop in the ROB is queued in its domain; its
// pending count is the number of distinct producers of its operands
// that have not issued; it is a candidate exactly when that count is
// zero; and each queue's count and parked tally match. It returns how
// many uops are parked.
func checkIssueQueues(t *testing.T, p *Processor, now clock.Time) int {
	t.Helper()
	var count, parked [isa.NumExecDomains]int
	for i := 0; i < p.rob.count; i++ {
		u := p.rob.entries[(p.rob.head+i)%len(p.rob.entries)]
		if u.state == stateIssued {
			continue
		}
		q := &p.queues[u.domain]
		count[u.domain]++
		unissued := 0
		for j, src := range []uint64{u.src1, u.src2} {
			if src == 0 || (j == 1 && src == u.src1) {
				continue
			}
			if pr := p.win.lookup(src); pr != nil && pr.state != stateIssued {
				unissued++
			}
		}
		if int(u.pending) != unissued {
			t.Fatalf("at %v: uop %d has pending %d, %d unissued producers", now, u.seq, u.pending, unissued)
		}
		s := u.seq & q.mask
		cand := q.cand[s>>6]>>(s&63)&1 == 1
		if cand != (u.pending == 0) || q.slots[s] != u {
			t.Fatalf("at %v: uop %d (pending %d) candidate %v, in its slot %v", now, u.seq, u.pending, cand, q.slots[s] == u)
		}
		if u.pending > 0 {
			parked[u.domain]++
		}
	}
	for d := range p.queues {
		q := &p.queues[d]
		n := 0
		for _, w := range q.cand {
			n += bits.OnesCount64(w)
		}
		if q.count != count[d] || q.parked != parked[d] || n != count[d]-parked[d] {
			t.Fatalf("at %v: domain %d queue count %d, parked %d, %d candidates; the ROB holds %d queued, %d parked",
				now, d, q.count, q.parked, n, count[d], parked[d])
		}
	}
	return parked[0] + parked[1] + parked[2]
}

// TestIssueQueueInvariants pauses runs every 2 ns and checks the issue
// queues' invariants at each pause.
func TestIssueQueueInvariants(t *testing.T) {
	tokenRing := DefaultConfig()
	tokenRing.SyncPolicy = queue.SyncTokenRing
	for _, c := range []struct {
		bench string
		cfg   Config
	}{
		{"gzip", DefaultConfig()},
		{"swim", DefaultConfig()},
		{"epic_decode", tokenRing},
	} {
		prof, err := trace.ByName(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewGenerator(prof, 7, 4000)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := p.beginEventRun(ctx, gen); err != nil {
			t.Fatal(err)
		}
		parked := 0
		for deadline := 2 * clock.Nanosecond; ; deadline += 2 * clock.Nanosecond {
			done, err := p.advanceEvent(ctx, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			parked += checkIssueQueues(t, p, deadline)
		}
		if p.retired != 4000 || parked == 0 {
			t.Errorf("%s: retired %d of 4000, saw %d parked uops over the pauses", c.bench, p.retired, parked)
		}
	}
}

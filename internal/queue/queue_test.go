package queue

import (
	"testing"
	"testing/quick"

	"mcddvfs/internal/clock"
)

// newArb creates an arbitration-interface queue, the processor's
// default.
func newArb[T any](name string, capacity int, syncWin clock.Time) *Queue[T] {
	return NewWithPolicy[T](name, capacity, syncWin, SyncArbitration)
}

// popFront removes and returns the oldest entry if it is visible at
// now, the way dispatch drains a queue.
func popFront[T any](q *Queue[T], now clock.Time) (T, bool) {
	p, ok := q.FrontPtr(now)
	if !ok {
		var zero T
		return zero, false
	}
	v := *p
	q.RemoveAt(0)
	return v, true
}

// visibleEntries returns the entries the consumer can see at now, in
// insertion order, the way the issue scan walks them.
func visibleEntries[T any](q *Queue[T], now clock.Time) []T {
	var out []T
	for i := 0; i < q.Len(); i++ {
		if v, ok := q.EntryAt(i, now); ok {
			out = append(out, v)
		}
	}
	return out
}

func TestPushPopFIFO(t *testing.T) {
	q := newArb[int]("iq", 4, 0)
	for i := 1; i <= 4; i++ {
		if !q.Push(0, i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if !q.Full() {
		t.Error("queue should be full")
	}
	if q.Push(0, 5) {
		t.Error("push into full queue succeeded")
	}
	for i := 1; i <= 4; i++ {
		v, ok := popFront(q, 0)
		if !ok || v != i {
			t.Fatalf("popFront = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if !q.Empty() {
		t.Error("queue should be empty")
	}
	_, _, stalls := q.Stats()
	if stalls != 1 {
		t.Errorf("fullStalls = %d, want 1", stalls)
	}
}

func TestSyncWindowDelaysVisibility(t *testing.T) {
	win := 300 * clock.Picosecond
	q := newArb[int]("iq", 4, win)
	q.Push(1000, 7)
	if len(visibleEntries(q, 1000)) != 0 {
		t.Error("entry visible before sync window elapsed")
	}
	if _, ok := popFront(q, 1000+win-1); ok {
		t.Error("popFront saw entry inside sync window")
	}
	if v, ok := popFront(q, 1000+win); !ok || v != 7 {
		t.Error("entry not visible after sync window")
	}
	// Len counts physical occupancy regardless of visibility.
	q.Push(2000, 8)
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1 (physical occupancy)", q.Len())
	}
}

func TestScanVisitsOnlyVisibleInOrder(t *testing.T) {
	q := newArb[int]("iq", 8, 100)
	q.Push(0, 1)   // visible at 100
	q.Push(50, 2)  // visible at 150
	q.Push(500, 3) // visible at 600
	if seen := visibleEntries(q, 200); len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("scan at 200 saw %v, want [1 2]", seen)
	}
	// The entry still inside its window is the one a consumer sleeps on.
	if _, ok := q.EntryAt(2, 200); ok || q.VisibleFrom(2) != 600 {
		t.Errorf("entry 2: visible at 200 = %v, VisibleFrom = %d, want false and 600", ok, q.VisibleFrom(2))
	}
}

func TestRemoveAtPreservesOrder(t *testing.T) {
	q := newArb[int]("iq", 8, 0)
	for i := 1; i <= 5; i++ {
		q.Push(0, i)
	}
	q.RemoveAt(1) // remove 2
	q.RemoveAt(2) // remove 4 (indices shifted)
	rest := visibleEntries(q, 0)
	want := []int{1, 3, 5}
	for i := range want {
		if rest[i] != want[i] {
			t.Fatalf("after removals: %v, want %v", rest, want)
		}
	}
}

func TestOccupancyConservation(t *testing.T) {
	// Property: Len == pushes - pops at all times.
	q := newArb[uint16]("iq", 16, 10)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			if op%3 == 0 {
				q.Push(clock.Time(op), op)
			} else {
				popFront(q, clock.Time(op)+100)
			}
			pushes, pops, _ := q.Stats()
			if int(pushes-pops) != q.Len() {
				return false
			}
			if q.Len() > 16 || q.Len() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVisibleNeverExceedsLen(t *testing.T) {
	q := newArb[int]("iq", 8, 500)
	f := func(now uint32) bool {
		return len(visibleEntries(q, clock.Time(now))) <= q.Len()
	}
	q.Push(0, 1)
	q.Push(100, 2)
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for i, fn := range []func(){
		func() { newArb[int]("x", 0, 0) },
		func() { newArb[int]("x", 4, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(3)
	for i := 0; i < 5; i++ {
		s.Record(i)
	}
	if n := len(s.Samples()); n != 3 {
		t.Errorf("retained %d samples, want 3", n)
	}
	want := []float64{0, 1, 2}
	for i, v := range s.Samples() {
		if v != want[i] {
			t.Errorf("sample %d = %g, want %g", i, v, want[i])
		}
	}
	unl := NewSampler(0)
	for i := 0; i < 100; i++ {
		unl.Record(i)
	}
	if len(unl.Samples()) != 100 {
		t.Error("unlimited sampler dropped samples")
	}
}

func TestTokenRingPaysOnlyOnEmpty(t *testing.T) {
	win := 300 * clock.Picosecond
	q := NewWithPolicy[int]("iq", 4, win, SyncTokenRing)
	q.Push(1000, 1) // into empty queue: pays the window
	if len(visibleEntries(q, 1000)) != 0 {
		t.Error("first entry visible before window under token ring")
	}
	q.Push(1100, 2) // queue non-empty: free
	if got := q.VisibleFrom(1); got != 1100 {
		t.Errorf("second entry visible from %d, want 1100 (no window)", got)
	}
	// Arbitration pays every time.
	a := NewWithPolicy[int]("iq", 4, win, SyncArbitration)
	a.Push(1000, 1)
	a.Push(1100, 2)
	if a.VisibleFrom(0) != 1000+win || a.VisibleFrom(1) != 1100+win {
		t.Errorf("arbitration visible from %d, %d; want both past the window", a.VisibleFrom(0), a.VisibleFrom(1))
	}
}

func TestSyncPolicyString(t *testing.T) {
	if SyncArbitration.String() != "arbitration" || SyncTokenRing.String() != "token-ring" {
		t.Error("bad policy names")
	}
	if SyncPolicy(9).String() == "" {
		t.Error("out-of-range policy must format")
	}
}

func TestZeroWindowPaysNothing(t *testing.T) {
	q := NewWithPolicy[int]("iq", 4, 0, SyncArbitration)
	q.Push(0, 1)
	if q.VisibleFrom(0) != 0 {
		t.Error("zero window delayed visibility")
	}
}

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
	q.PopFront()
	return v, true
}

// visibleCount returns how many entries the consumer can see at now.
func visibleCount[T any](q *Queue[T], now clock.Time) int {
	n := 0
	for i := 0; i < q.Len(); i++ {
		if q.VisibleFrom(i) <= now {
			n++
		}
	}
	return n
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
}

func TestSyncWindowDelaysVisibility(t *testing.T) {
	win := 300 * clock.Picosecond
	q := newArb[int]("iq", 4, win)
	q.Push(1000, 7)
	if visibleCount(q, 1000) != 0 {
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

func TestOccupancyConservation(t *testing.T) {
	// Property: Len == pushes - pops at all times.
	q := newArb[uint16]("iq", 16, 10)
	pushes, pops := 0, 0
	f := func(ops []uint16) bool {
		for _, op := range ops {
			if op%3 == 0 {
				if q.Push(clock.Time(op), op) {
					pushes++
				}
			} else if _, ok := popFront(q, clock.Time(op)+100); ok {
				pops++
			}
			if pushes-pops != q.Len() {
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
		return visibleCount(q, clock.Time(now)) <= q.Len()
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
	want := []uint16{0, 1, 2}
	for i, v := range s.Samples() {
		if v != want[i] {
			t.Errorf("sample %d = %d, want %d", i, v, want[i])
		}
	}
	unl := NewSampler(0)
	for i := 0; i < 100; i++ {
		unl.Record(i)
	}
	if len(unl.Samples()) != 100 {
		t.Error("unlimited sampler dropped samples")
	}
	// The largest occupancy a validated queue can reach is stored exactly.
	unl.Record(65535)
	if got := unl.Samples()[100]; got != 65535 {
		t.Errorf("sample 65535 stored as %d", got)
	}
}

func TestTokenRingPaysOnlyOnEmpty(t *testing.T) {
	win := 300 * clock.Picosecond
	q := NewWithPolicy[int]("iq", 4, win, SyncTokenRing)
	q.Push(1000, 1) // into empty queue: pays the window
	if visibleCount(q, 1000) != 0 {
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

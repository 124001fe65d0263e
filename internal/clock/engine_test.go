package clock

import (
	"math/rand"
	"testing"
)

// NewEngine creates an engine over the given domains, registered in
// argument order.
func NewEngine(domains ...*Domain) *Engine {
	e := &Engine{}
	for _, d := range domains {
		e.Add(d)
	}
	return e
}

func TestEngineTieBreaksByRegistrationOrder(t *testing.T) {
	a := NewDomain(DomainConfig{Name: "a", FreqMHz: 1000})
	b := NewDomain(DomainConfig{Name: "b", FreqMHz: 1000})
	e := NewEngine(a, b)
	i1, t1 := e.Next()
	e.Advance(i1)
	i2, t2 := e.Next()
	e.Advance(i2)
	if i1 != 0 || i2 != 1 || t1 != t2 {
		t.Errorf("tie broke as (%d@%v, %d@%v); want (0, 1) at equal times", i1, t1, i2, t2)
	}
}

func TestEngineMatchesSchedulerOrder(t *testing.T) {
	mk := func() []*Domain {
		return []*Domain{
			NewDomain(DomainConfig{Name: "a", FreqMHz: 1000, JitterPS: 110, Seed: 1}),
			NewDomain(DomainConfig{Name: "b", FreqMHz: 700, JitterPS: 110, Seed: 2}),
			NewDomain(DomainConfig{Name: "c", FreqMHz: 250, Seed: 3}),
		}
	}
	ds, de := mk(), mk()
	s := NewScheduler(ds...)
	e := NewEngine(de...)
	for i := 0; i < 10000; i++ {
		sd, st := s.Step()
		ei, _ := e.Next()
		et := e.Advance(ei)
		if sd.Name() != de[ei].Name() || st != et {
			t.Fatalf("step %d: scheduler %s@%v, engine %s@%v", i, sd.Name(), st, de[ei].Name(), et)
		}
	}
}

func TestEventQueueDeterministicOrder(t *testing.T) {
	var q eventQueue
	// Same time: kind breaks the tie; same kind: scheduling order does.
	q.push(Event{At: 10, Kind: EvFreqChange, seq: 0})
	q.push(Event{At: 10, Kind: EvDeadline, seq: 1})
	q.push(Event{At: 5, Kind: EvActuation, seq: 2})
	q.push(Event{At: 10, Kind: EvDeadline, seq: 3})
	q.push(Event{At: 10, Kind: EvQueuePush, seq: 4})
	want := []Event{
		{At: 5, Kind: EvActuation, seq: 2},
		{At: 10, Kind: EvDeadline, seq: 1},
		{At: 10, Kind: EvDeadline, seq: 3},
		{At: 10, Kind: EvQueuePush, seq: 4},
		{At: 10, Kind: EvFreqChange, seq: 0},
	}
	for i, w := range want {
		got := q.pop()
		if got != w {
			t.Errorf("pop %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestEventQueueHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	for i := 0; i < 500; i++ {
		q.push(Event{
			At:   Time(rng.Int63n(100)),
			Kind: EventKind(rng.Intn(NumEventKinds)),
			seq:  uint64(i),
		})
	}
	prev := q.pop()
	for len(q.ev) > 0 {
		next := q.pop()
		if next.before(prev) {
			t.Fatalf("heap order violated: %+v popped after %+v", next, prev)
		}
		prev = next
	}
}

func TestEngineSleepWakeDeadline(t *testing.T) {
	a := NewDomain(DomainConfig{Name: "a", FreqMHz: 1000})
	e := NewEngine(a)
	e.Sleep(0, 2500*Picosecond, false)
	if !e.Asleep(0) {
		t.Fatal("domain not asleep after Sleep")
	}
	skipped := 0
	for {
		i, tm := e.Next()
		if tm >= e.WakeAt(i) {
			e.WakeDue(i)
			break
		}
		e.IdleAdvance(i)
		skipped++
	}
	if e.Asleep(0) {
		t.Fatal("domain still asleep after WakeDue")
	}
	// Edges at 0 ps and 1000 ps precede the 2500 ps deadline; the edge
	// at 2000 ps does too (2000 < 2500), so three edges are skipped and
	// the 3000 ps edge runs slow.
	if skipped != 3 {
		t.Errorf("skipped %d edges before deadline, want 3", skipped)
	}
	st := e.Stats(0)
	if st.SkippedEdges != 3 || st.Sleeps != 1 || st.Wakes[EvDeadline] != 1 {
		t.Errorf("stats = %+v, want 3 skipped, 1 sleep, 1 deadline wake", st)
	}
}

func TestEngineWakeIsIdempotentAndImmediate(t *testing.T) {
	a := NewDomain(DomainConfig{Name: "a", FreqMHz: 1000})
	e := NewEngine(a)
	e.Wake(0, EvQueuePush) // awake: no-op
	if got := e.Stats(0).Wakes[EvQueuePush]; got != 0 {
		t.Errorf("wake on awake domain counted: %d", got)
	}
	e.Sleep(0, Forever, false)
	e.Wake(0, EvQueuePush)
	if e.Asleep(0) {
		t.Fatal("domain asleep after Wake")
	}
	if got := e.Stats(0).Wakes[EvQueuePush]; got != 1 {
		t.Errorf("queue-push wakes = %d, want 1", got)
	}
}

func TestEngineScheduleCoalesces(t *testing.T) {
	a := NewDomain(DomainConfig{Name: "a", FreqMHz: 1000})
	e := NewEngine(a)
	e.Sleep(0, Forever, false)
	e.Schedule(5000*Picosecond, EvQueuePush, 0)
	if n := len(e.pq.ev); n != 1 {
		t.Fatalf("pending events = %d, want 1", n)
	}
	// A later event cannot lower the bound: coalesced away.
	e.Schedule(9000*Picosecond, EvQueuePush, 0)
	if n := len(e.pq.ev); n != 1 {
		t.Errorf("later event enqueued: pending = %d, want 1", n)
	}
	// An earlier event lowers the bound.
	e.Schedule(3000*Picosecond, EvActuation, 0)
	if got := e.WakeAt(0); got != 3000*Picosecond {
		t.Errorf("WakeAt = %v, want 3000 ps", got)
	}
	// Waking discards the domain's pending events lazily at the next
	// slow edge.
	e.Wake(0, EvFreqChange)
	e.Advance(0)
	if n := len(e.pq.ev); n != 0 {
		t.Errorf("stale events survived a slow edge: pending = %d", n)
	}
}

func TestEngineBroadcastIssue(t *testing.T) {
	a := NewDomain(DomainConfig{Name: "a", FreqMHz: 1000})
	b := NewDomain(DomainConfig{Name: "b", FreqMHz: 1000})
	c := NewDomain(DomainConfig{Name: "c", FreqMHz: 1000})
	e := NewEngine(a, b, c)
	e.Sleep(0, Forever, true)  // subscribed to issue broadcasts
	e.Sleep(1, Forever, false) // not subscribed
	e.BroadcastIssue(4000 * Picosecond)
	if got := e.WakeAt(0); got != 4000*Picosecond {
		t.Errorf("subscribed sleeper WakeAt = %v, want 4000 ps", got)
	}
	if got := e.WakeAt(1); got != Forever {
		t.Errorf("unsubscribed sleeper WakeAt = %v, want Forever", got)
	}
}

func TestEngineSleepTwicePanics(t *testing.T) {
	a := NewDomain(DomainConfig{Name: "a", FreqMHz: 1000})
	e := NewEngine(a)
	e.Sleep(0, Forever, false)
	defer func() {
		if recover() == nil {
			t.Error("second Sleep did not panic")
		}
	}()
	e.Sleep(0, Forever, false)
}

func TestEngineAddPanicsPastMaxDomains(t *testing.T) {
	var e Engine
	for i := 0; i < MaxDomains; i++ {
		e.Add(NewDomain(DomainConfig{Name: "d", FreqMHz: 1000}))
	}
	defer func() {
		if recover() == nil {
			t.Error("Add past MaxDomains did not panic")
		}
	}()
	e.Add(NewDomain(DomainConfig{Name: "extra", FreqMHz: 1000}))
}

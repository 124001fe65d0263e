package clock

import "testing"

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
	if got := e.WakeAt(0); got != 5000*Picosecond {
		t.Fatalf("WakeAt = %v, want 5000 ps", got)
	}
	// A later wake cannot lower the bound: coalesced away.
	e.Schedule(9000*Picosecond, EvQueuePush, 0)
	if got := e.WakeAt(0); got != 5000*Picosecond {
		t.Errorf("later wake moved the bound: WakeAt = %v, want 5000 ps", got)
	}
	// An earlier wake lowers the bound.
	e.Schedule(3000*Picosecond, EvActuation, 0)
	if got := e.WakeAt(0); got != 3000*Picosecond {
		t.Errorf("WakeAt = %v, want 3000 ps", got)
	}
	// Waking clears the bound, and an awake domain ignores Schedule.
	e.Wake(0, EvFreqChange)
	if got := e.WakeAt(0); got != Forever {
		t.Errorf("WakeAt after Wake = %v, want Forever", got)
	}
	e.Schedule(1000*Picosecond, EvQueuePush, 0)
	if got := e.WakeAt(0); got != Forever {
		t.Errorf("Schedule on an awake domain set WakeAt = %v", got)
	}
}

// Two wakes scheduled for the same time: the first one scheduled keeps
// the wake attribution, whatever the kinds.
func TestEngineScheduleTieKeepsFirstKind(t *testing.T) {
	for _, tc := range []struct{ first, second EventKind }{
		{EvActuation, EvDeadline},
		{EvDeadline, EvActuation},
	} {
		a := NewDomain(DomainConfig{Name: "a", FreqMHz: 1000})
		e := NewEngine(a)
		e.Sleep(0, Forever, false)
		e.Schedule(2000*Picosecond, tc.first, 0)
		e.Schedule(2000*Picosecond, tc.second, 0)
		for {
			i, tm := e.Next()
			if tm >= e.WakeAt(i) {
				e.WakeDue(i)
				break
			}
			e.IdleAdvance(i)
		}
		w := e.Stats(0).Wakes
		if w[tc.first] != 1 || w[tc.second] != 0 {
			t.Errorf("%v then %v at one time: wakes %v, want one %v wake", tc.first, tc.second, w, tc.first)
		}
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

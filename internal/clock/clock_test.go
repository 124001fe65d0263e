package clock

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestPeriodForMHz(t *testing.T) {
	tests := []struct {
		mhz  float64
		want Time
	}{
		{1000, 1 * Nanosecond},
		{250, 4 * Nanosecond},
		{500, 2 * Nanosecond},
		{1, 1000 * Nanosecond},
	}
	for _, tt := range tests {
		if got := PeriodForMHz(tt.mhz); got != tt.want {
			t.Errorf("PeriodForMHz(%g) = %v, want %v", tt.mhz, got, tt.want)
		}
	}
}

func TestPeriodForMHzPanicsOnNonPositive(t *testing.T) {
	for _, mhz := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PeriodForMHz(%g) did not panic", mhz)
				}
			}()
			PeriodForMHz(mhz)
		}()
	}
}

// FreqMHzForPeriod is the inverse of PeriodForMHz, the reference the
// round-trip test checks periods against.
func FreqMHzForPeriod(p Time) float64 {
	if p <= 0 {
		panic(fmt.Sprintf("clock: non-positive period %d", int64(p)))
	}
	return 1e9 / float64(p)
}

func TestFreqPeriodRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		mhz := 250 + float64(raw%750) // 250..1000 MHz
		p := PeriodForMHz(mhz)
		back := FreqMHzForPeriod(p)
		return math.Abs(back-mhz)/mhz < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		t    Time
		want string
	}{
		{500, "500fs"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000us"},
		{Millisecond, "1.000ms"},
		{Forever, "forever"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(tt.t), got, tt.want)
		}
	}
}

func TestDomainFixedFrequencyEdges(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "fe", FreqMHz: 1000})
	for i := 0; i < 5; i++ {
		edge := d.Advance()
		if want := Time(i) * Nanosecond; edge != want {
			t.Fatalf("edge %d at %v, want %v", i, edge, want)
		}
	}
	if d.Cycles() != 5 {
		t.Errorf("Cycles() = %d, want 5", d.Cycles())
	}
}

func TestDomainSetTargetInstant(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "int", FreqMHz: 1000, MinMHz: 250, MaxMHz: 1000})
	d.Advance() // edge at 0
	d.SetTarget(0, 500)
	if got := d.FreqMHz(1); got != 500 {
		t.Fatalf("FreqMHz after instant transition = %g, want 500", got)
	}
	e1 := d.Advance()
	e2 := d.Advance()
	if e2-e1 != 2*Nanosecond {
		t.Errorf("period after retarget = %v, want 2ns", e2-e1)
	}
}

func TestDomainSetTargetClamps(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "int", FreqMHz: 500, MinMHz: 250, MaxMHz: 1000})
	d.SetTarget(0, 2000)
	if d.TargetMHz() != 1000 {
		t.Errorf("target after over-range request = %g, want 1000", d.TargetMHz())
	}
	d.SetTarget(0, 10)
	if d.TargetMHz() != 250 {
		t.Errorf("target after under-range request = %g, want 250", d.TargetMHz())
	}
}

func TestDomainSlewIsLinear(t *testing.T) {
	// 73.3 ns/MHz over a 100 MHz swing = 7330 ns of slew.
	slew := Time(73300) * Picosecond // 73.3ns in fs
	d := NewDomain(DomainConfig{Name: "fp", FreqMHz: 500, MinMHz: 250, MaxMHz: 1000, SlewPerMHz: slew})
	d.SetTarget(0, 600)
	total := Time(100) * slew
	if !d.InTransition(total - 1) {
		t.Fatal("expected to still be in transition just before slewEnd")
	}
	if d.InTransition(total) {
		t.Fatal("expected transition over at slewEnd")
	}
	// Midpoint frequency should be halfway.
	mid := d.FreqMHz(total / 2)
	if math.Abs(mid-550) > 0.5 {
		t.Errorf("midpoint frequency = %g, want ~550", mid)
	}
	if got := d.FreqMHz(total + 1); got != 600 {
		t.Errorf("final frequency = %g, want 600", got)
	}
	if d.Transitions() != 1 {
		t.Errorf("Transitions() = %d, want 1", d.Transitions())
	}
	if d.SlewTime() != total {
		t.Errorf("SlewTime() = %v, want %v", d.SlewTime(), total)
	}
}

func TestDomainRedundantTargetIsNoOp(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "ls", FreqMHz: 500, MinMHz: 250, MaxMHz: 1000})
	d.SetTarget(0, 500)
	if d.Transitions() != 0 {
		t.Errorf("redundant SetTarget counted as transition")
	}
}

func TestTransmetaIdlesDuringTransition(t *testing.T) {
	slew := Time(10) * Nanosecond
	d := NewDomain(DomainConfig{Name: "fp", FreqMHz: 500, MinMHz: 250, MaxMHz: 1000,
		SlewPerMHz: slew, Style: Transmeta})
	d.SetTarget(0, 510)
	if !d.Idle(5 * Nanosecond) {
		t.Error("Transmeta domain should idle mid-transition")
	}
	if d.Idle(200 * Nanosecond) {
		t.Error("Transmeta domain should run after transition")
	}
	x := NewDomain(DomainConfig{Name: "int", FreqMHz: 500, MinMHz: 250, MaxMHz: 1000,
		SlewPerMHz: slew, Style: XScale})
	x.SetTarget(0, 510)
	if x.Idle(5 * Nanosecond) {
		t.Error("XScale domain must never idle")
	}
}

func TestDomainEdgesMonotonicUnderJitterAndRetargets(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "int", FreqMHz: 1000, MinMHz: 250, MaxMHz: 1000,
		JitterPS: 110, Seed: 42, SlewPerMHz: Time(73300) * Picosecond})
	prev := Time(-1)
	for i := 0; i < 10000; i++ {
		if i%100 == 0 {
			// Alternate retargets to exercise slewing.
			if i%200 == 0 {
				d.SetTarget(d.NextEdge(), 250)
			} else {
				d.SetTarget(d.NextEdge(), 1000)
			}
		}
		e := d.Advance()
		if e <= prev {
			t.Fatalf("edge %d at %v not after previous %v", i, e, prev)
		}
		prev = e
	}
}

func TestJitterBounded(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "int", FreqMHz: 1000, JitterPS: 110, Seed: 7})
	period := PeriodForMHz(1000)
	bound := Time(110) * Picosecond
	prev := d.Advance()
	for i := 0; i < 5000; i++ {
		e := d.Advance()
		delta := e - prev - period
		if delta > bound || delta < -bound {
			t.Fatalf("edge %d jitter %v exceeds ±110ps", i, delta)
		}
		prev = e
	}
}

func TestJitterDeterministicBySeed(t *testing.T) {
	mk := func() []Time {
		d := NewDomain(DomainConfig{Name: "x", FreqMHz: 777, JitterPS: 110, Seed: 99})
		out := make([]Time, 100)
		for i := range out {
			out[i] = d.Advance()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSchedulerOrdersEdgesGlobally(t *testing.T) {
	fast := NewDomain(DomainConfig{Name: "fast", FreqMHz: 1000})
	slow := NewDomain(DomainConfig{Name: "slow", FreqMHz: 250})
	s := NewScheduler(fast, slow)
	counts := map[string]int{}
	prev := Time(-1)
	for i := 0; i < 50; i++ {
		d, tm := s.Step()
		if d == nil {
			t.Fatal("scheduler ran dry")
		}
		if tm < prev {
			t.Fatalf("time went backwards: %v after %v", tm, prev)
		}
		prev = tm
		counts[d.Name()]++
	}
	// The 1000 MHz domain must get ~4x the edges of the 250 MHz domain.
	if counts["fast"] < 3*counts["slow"] {
		t.Errorf("edge ratio fast:slow = %d:%d, want ~4:1", counts["fast"], counts["slow"])
	}
}

func TestSchedulerTieBreaksByRegistrationOrder(t *testing.T) {
	a := NewDomain(DomainConfig{Name: "a", FreqMHz: 1000})
	b := NewDomain(DomainConfig{Name: "b", FreqMHz: 1000})
	s := NewScheduler(a, b)
	d1, _ := s.Step()
	d2, _ := s.Step()
	if d1.Name() != "a" || d2.Name() != "b" {
		t.Errorf("tie broke as %s,%s; want a,b", d1.Name(), d2.Name())
	}
}

func TestSchedulerAllStopped(t *testing.T) {
	// With no domain clocked, there is no edge to step to.
	s := NewScheduler()
	if d, tm := s.Step(); d != nil || tm != Forever {
		t.Errorf("Step on an empty set = (%v,%v), want (nil,Forever)", d, tm)
	}
}

func TestTimeUnitConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %g", got)
	}
	if got := (5 * Millisecond).Seconds(); got != 0.005 {
		t.Errorf("Seconds = %g", got)
	}
}

func TestFreqMHzForPeriodPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FreqMHzForPeriod(0)
}

func TestTransitionStyleString(t *testing.T) {
	if XScale.String() != "xscale" || Transmeta.String() != "transmeta" {
		t.Error("bad style names")
	}
	if TransitionStyle(7).String() == "" {
		t.Error("out-of-range style must format")
	}
}

func TestDomainAccessors(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "x", FreqMHz: 500})
	if d.Name() != "x" || d.TargetMHz() != 500 || d.FreqMHz(0) != 500 {
		t.Error("config not reflected by Name/TargetMHz/FreqMHz")
	}
	next := d.NextEdge()
	if e := d.Advance(); e != next || d.Cycles() != 1 {
		t.Errorf("Advance = %v after %d cycles, want the pending edge %v after 1", e, d.Cycles(), next)
	}
	if d.NextEdge() != next+PeriodForMHz(500) {
		t.Errorf("NextEdge = %v, want one 500 MHz period later", d.NextEdge())
	}
}

func TestNewDomainPanics(t *testing.T) {
	for i, cfg := range []DomainConfig{
		{Name: "bad", FreqMHz: 0},
		{Name: "bad", FreqMHz: 100, MinMHz: 200, MaxMHz: 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			NewDomain(cfg)
		}()
	}
}

func TestSchedulerAddNowDomains(t *testing.T) {
	a := NewDomain(DomainConfig{Name: "a", FreqMHz: 1000})
	s := NewScheduler(a)
	b := NewDomain(DomainConfig{Name: "b", FreqMHz: 500})
	s.Add(b)
	if len(s.Domains()) != 2 {
		t.Fatalf("Domains = %d, want 2", len(s.Domains()))
	}
	_, tm := s.Step()
	if s.Now() != tm {
		t.Errorf("Now = %v, want %v", s.Now(), tm)
	}
}

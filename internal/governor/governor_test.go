package governor

import (
	"slices"
	"testing"

	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/mcd"
)

// testRange is a DVFS range with round numbers: 250–1000 MHz.
var testRange = dvfs.Range{MinMHz: 250, MaxMHz: 1000}

// build constructs the registered governor name for opt.
func build(t *testing.T, name string, opt Options) mcd.Governor {
	t.Helper()
	d, ok := Lookup(name)
	if !ok {
		t.Fatalf("governor %q not registered", name)
	}
	g, err := d.New(opt)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	return g
}

func TestRegistry(t *testing.T) {
	if got, want := NamesList(), "none, static-split, integral-gain"; got != want {
		t.Fatalf("NamesList() = %q, want %q", got, want)
	}
	for i, d := range All() {
		if d.Order != i {
			t.Errorf("%s: order %d at position %d", d.Name, d.Order, i)
		}
		got, ok := Lookup(d.Name)
		if !ok || got.Name != d.Name {
			t.Errorf("Lookup(%q) = %q, %v", d.Name, got.Name, ok)
		}
		// Only capping governors take a budget, and they check it.
		if d.Capping != (d.Name != DefaultName) || d.Capping != (d.Validate != nil) {
			t.Errorf("%s: Capping %v, Validate set %v", d.Name, d.Capping, d.Validate != nil)
		}
	}
	if _, ok := Lookup("pid"); ok {
		t.Error("Lookup of an unregistered governor succeeded")
	}
	if g := build(t, DefaultName, Options{Cores: 4, Range: testRange}); g != nil {
		t.Errorf("the %s governor is %T, want nil (cores run free)", DefaultName, g)
	}
}

// TestRegisterPanics: a missing New hook panics in Register, and the
// registry's checks (internal/registry tests each) reach governors
// with their texts; a failed registration inserts nothing.
func TestRegisterPanics(t *testing.T) {
	newNone := func(Options) (mcd.Governor, error) { return nil, nil }
	for _, tc := range []struct {
		d    Descriptor
		want string
	}{
		{Descriptor{Name: "no-new", Order: 990001}, `governor: "no-new" registered without a New hook`},
		{Descriptor{Name: "usurper", Order: 0, New: newNone}, `governor: "usurper" reuses order 0 of "none"`},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("Register(%q) panicked with %v, want %q", tc.d.Name, got, tc.want)
				}
			}()
			Register(tc.d)
		}()
	}
	if got, want := NamesList(), "none, static-split, integral-gain"; got != want {
		t.Errorf("NamesList() = %q after failed registrations, want %q", got, want)
	}
}

func TestValidateBudget(t *testing.T) {
	valid := Options{Cores: 2, BudgetW: 20, GainMHzPerW: 10, Range: testRange}
	if err := validateBudget(valid); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for name, mut := range map[string]func(*Options){
		"zero budget":     func(o *Options) { o.BudgetW = 0 },
		"negative budget": func(o *Options) { o.BudgetW = -5 },
		"zero cores":      func(o *Options) { o.Cores = 0 },
		"negative gain":   func(o *Options) { o.GainMHzPerW = -1 },
	} {
		opt := valid
		mut(&opt)
		if err := validateBudget(opt); err == nil {
			t.Errorf("%s: accepted", name)
		}
		for _, gov := range []string{"static-split", "integral-gain"} {
			d, _ := Lookup(gov)
			if _, err := d.New(opt); err == nil {
				t.Errorf("%s: %s.New accepted", name, gov)
			}
		}
	}
}

// TestStaticSplit: each core integrates its own error against B/N,
// independent of the others, and its cap stays in the DVFS range.
func TestStaticSplit(t *testing.T) {
	g := build(t, "static-split", Options{Cores: 2, BudgetW: 20, GainMHzPerW: 10, Range: testRange})
	caps := make([]float64, 2)
	step := func(powerW ...float64) {
		t.Helper()
		g.Apportion(0, powerW, caps)
	}
	// Shares are 10 W each. Core 0 is 5 W over its share and loses 50
	// MHz; core 1 is 5 W under and would gain 50 MHz, but starts at
	// f_max.
	step(15, 5)
	if want := []float64{950, 1000}; !slices.Equal(caps, want) {
		t.Fatalf("caps %v, want %v", caps, want)
	}
	// Each core integrates from its own state.
	step(15, 15)
	if want := []float64{900, 950}; !slices.Equal(caps, want) {
		t.Fatalf("caps %v, want %v", caps, want)
	}
	step(10, 8)
	if want := []float64{900, 970}; !slices.Equal(caps, want) {
		t.Fatalf("caps %v, want %v", caps, want)
	}
	// A far-over core bottoms out at f_min.
	step(1000, 10)
	if want := []float64{250, 970}; !slices.Equal(caps, want) {
		t.Fatalf("caps %v, want %v", caps, want)
	}

	// An unset gain takes the default.
	g = build(t, "static-split", Options{Cores: 1, BudgetW: 10, Range: testRange})
	caps = caps[:1]
	step(11)
	if want := 1000 - DefaultGainMHzPerW*1.0; caps[0] != want {
		t.Errorf("default-gain cap %v, want %v", caps[0], want)
	}
}

// TestIntegralGainAllowance: the chip-wide allowance moves by gain ×
// the budget error each epoch and stays within [N·f_min, N·f_max].
func TestIntegralGainAllowance(t *testing.T) {
	g := build(t, "integral-gain", Options{Cores: 2, BudgetW: 20, GainMHzPerW: 10, Range: testRange})
	ig := g.(*integralGain)
	caps := make([]float64, 2)
	for i, tc := range []struct {
		powerW    []float64
		allocMHz  float64
		situation string
	}{
		{[]float64{15, 15}, 1900, "10 W over budget"},
		{[]float64{12, 13}, 1850, "5 W over budget"},
		{[]float64{5, 10}, 1900, "5 W under budget"},
		{[]float64{0, 0}, 2000, "20 W under budget, clamped to N·f_max"},
		{[]float64{500, 500}, 500, "980 W over budget, clamped to N·f_min"},
		{[]float64{0, 10}, 600, "10 W under budget"},
	} {
		g.Apportion(0, tc.powerW, caps)
		if ig.allocMHz != tc.allocMHz {
			t.Fatalf("epoch %d (%s): allowance %v MHz, want %v", i, tc.situation, ig.allocMHz, tc.allocMHz)
		}
	}
}

// TestIntegralGainSplit: caps split the allowance half evenly and half
// by demand, so an idle core gets less than a busy one, and a chip
// drawing nothing splits evenly.
func TestIntegralGainSplit(t *testing.T) {
	g := build(t, "integral-gain", Options{Cores: 2, BudgetW: 20, GainMHzPerW: 10, Range: testRange})
	caps := make([]float64, 2)
	// Drive the allowance down to 1200 MHz, below the caps' clamp.
	g.Apportion(0, []float64{50, 50}, caps)
	if got := g.(*integralGain).allocMHz; got != 1200 {
		t.Fatalf("allowance %v MHz, want 1200", got)
	}
	// 20 W drawn, on budget: the allowance holds at 1200. Core 0 idles:
	// its share is 1/4 (even half only), core 1's 3/4.
	g.Apportion(0, []float64{0, 20}, caps)
	if want := []float64{300, 900}; !slices.Equal(caps, want) {
		t.Fatalf("caps %v, want %v", caps, want)
	}
	// Nothing drawn: the allowance rises by 200 to 1400, split evenly.
	g.Apportion(0, []float64{0, 0}, caps)
	if want := []float64{700, 700}; !slices.Equal(caps, want) {
		t.Fatalf("caps %v, want %v", caps, want)
	}
}

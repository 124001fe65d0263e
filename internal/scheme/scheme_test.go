package scheme

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mcddvfs/internal/mcd"
)

// TestBuiltinOrdering pins the display order the byte-stability of
// every artifact depends on: the registry must enumerate the seed
// schemes first, in the pre-registry column order, with the extensions
// after them.
func TestBuiltinOrdering(t *testing.T) {
	names := strings.Split(NamesList(), ", ")
	want := []string{"none", "adaptive", "pid", "attack-decay", "global", "pid-adaptive"}
	if len(names) < len(want) {
		t.Fatalf("registry has %d schemes, want at least %d (%v)", len(names), len(want), names)
	}
	if !reflect.DeepEqual(names[:len(want)], want) {
		t.Errorf("display order = %v, want prefix %v", names, want)
	}
	// All() must be sorted by Order.
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Order >= all[i].Order {
			t.Errorf("All() not strictly ordered: %q (%d) before %q (%d)",
				all[i-1].Name, all[i-1].Order, all[i].Name, all[i].Order)
		}
	}
}

// TestAllTracksRegistration: a scheme registered out of order lands in
// its display slot, and All hands out a copy its caller may mutate.
func TestAllTracksRegistration(t *testing.T) {
	attach := func(p *mcd.Processor, opt Options) error { return nil }
	Register(Descriptor{Name: "late-high", Order: 990020, Attach: attach})
	Register(Descriptor{Name: "late-low", Order: 990010, Attach: attach})
	all := All()
	var got []string
	for i, d := range all {
		if i > 0 && all[i-1].Order >= d.Order {
			t.Errorf("All() not strictly ordered: %q (%d) before %q (%d)", all[i-1].Name, all[i-1].Order, d.Name, d.Order)
		}
		if strings.HasPrefix(d.Name, "late-") {
			got = append(got, d.Name)
		}
	}
	if want := []string{"late-low", "late-high"}; !reflect.DeepEqual(got, want) {
		t.Errorf("late registrations enumerate as %v, want %v", got, want)
	}
	all[0].Name = "clobbered"
	if All()[0].Name == "clobbered" {
		t.Error("mutating All()'s result reached the registry")
	}
}

// TestDefaultSet pins the paper's core comparison: the default set
// must stay exactly adaptive/pid/attack-decay no matter how many
// extensions register, or pre-refactor artifacts change bytes.
func TestDefaultSet(t *testing.T) {
	var names []string
	for _, d := range Default() {
		names = append(names, d.Name)
		if !d.Controlled || d.Extension {
			t.Errorf("default set includes %q (controlled=%v extension=%v)", d.Name, d.Controlled, d.Extension)
		}
	}
	if want := []string{"adaptive", "pid", "attack-decay"}; !reflect.DeepEqual(names, want) {
		t.Errorf("Default() = %v, want %v", names, want)
	}
}

// TestRegisterPanics covers every init-time invariant: duplicate name,
// duplicate order, empty name, and a missing Attach hook all panic.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, d Descriptor) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(d)
	}
	attach := func(p *mcd.Processor, opt Options) error { return nil }
	mustPanic("duplicate name", Descriptor{Name: "adaptive", Order: 990001, Attach: attach})
	mustPanic("duplicate order", Descriptor{Name: "nonce-scheme", Order: 0, Attach: attach})
	mustPanic("empty name", Descriptor{Name: "", Order: 990002, Attach: attach})
	mustPanic("padded name", Descriptor{Name: " padded", Order: 990003, Attach: attach})
	mustPanic("nil attach", Descriptor{Name: "no-attach", Order: 990004})

	// A failed registration must not leave a partial entry behind.
	if _, ok := Lookup("nonce-scheme"); ok {
		t.Error("panicked registration still inserted the scheme")
	}
}

// TestLookup covers hit and miss, and that descriptors round-trip.
func TestLookup(t *testing.T) {
	d, ok := Lookup("pid")
	if !ok || d.Name != "pid" || !d.Controlled || d.Extension {
		t.Errorf("Lookup(pid) = %+v, %v", d, ok)
	}
	if _, ok := Lookup("warp-speed"); ok {
		t.Error("Lookup accepted an unregistered scheme")
	}
}

// TestValidateHook exercises the per-scheme option validation seam.
func TestValidateHook(t *testing.T) {
	d, _ := Lookup("pid")
	if d.Validate == nil {
		t.Fatal("pid descriptor has no Validate hook")
	}
	if err := d.Validate(Options{PIDIntervalTicks: -1}); err == nil {
		t.Error("negative PID interval accepted")
	}
	if err := d.Validate(Options{PIDIntervalTicks: 312}); err != nil {
		t.Errorf("valid PID interval rejected: %v", err)
	}
}

// TestAttachErrorPropagates proves Attach hooks can fail cleanly: a
// registered scheme whose constructor errors surfaces that error to
// the caller (the experiment harness wraps it further).
func TestAttachErrorPropagates(t *testing.T) {
	sentinel := errors.New("no hardware")
	Register(Descriptor{
		Name:        "test-failing",
		Order:       990100,
		Controlled:  true,
		Extension:   true,
		Description: "test-only scheme whose Attach always fails",
		Attach:      func(p *mcd.Processor, opt Options) error { return sentinel },
	})
	d, ok := Lookup("test-failing")
	if !ok {
		t.Fatal("test scheme not registered")
	}
	if err := d.Attach(nil, Options{}); !errors.Is(err, sentinel) {
		t.Errorf("Attach error not propagated: %v", err)
	}
	// The test registration lands after every builtin in the listing.
	names := strings.Split(NamesList(), ", ")
	if names[len(names)-1] != "test-failing" {
		t.Errorf("high-order registration not last: %v", names)
	}
	if !strings.Contains(NamesList(), "adaptive, pid, attack-decay") {
		t.Errorf("NamesList() lost the builtin order: %s", NamesList())
	}
}

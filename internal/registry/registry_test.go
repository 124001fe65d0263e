package registry

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// kinds are the registries the repository builds, by the kind their
// panics name.
var kinds = []string{"scheme", "governor"}

// panicText runs fn and returns what it panicked with, or "" if it
// returned.
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestAddPanics covers every registration invariant for each kind: an
// empty, whitespace-carrying or duplicate name and a reused order each
// panic with the kind's text, the last naming the order's holder, and a
// failed Add inserts nothing.
func TestAddPanics(t *testing.T) {
	for _, kind := range kinds {
		r := New[int](kind)
		r.Add("held", 10, 1)
		for _, tc := range []struct {
			name  string
			order int
			want  string
		}{
			{"", 20, kind + `: invalid name ""`},
			{" padded", 21, kind + `: invalid name " padded"`},
			{"trailing\t", 22, kind + `: invalid name "trailing\t"`},
			{"held", 23, kind + `: duplicate registration of "held"`},
			{"usurper", 10, kind + `: "usurper" reuses order 10 of "held"`},
		} {
			if got := panicText(func() { r.Add(tc.name, tc.order, 2) }); got != tc.want {
				t.Errorf("%s: Add(%q, %d) panicked with %q, want %q", kind, tc.name, tc.order, got, tc.want)
			}
		}
		if _, ok := r.Lookup("usurper"); ok {
			t.Errorf("%s: a panicked Add still inserted its entry", kind)
		}
		if d, ok := r.Lookup("held"); !ok || d != 1 {
			t.Errorf("%s: Lookup(held) = %d, %v after failed Adds, want 1, true", kind, d, ok)
		}
		if got := r.NamesList(); got != "held" {
			t.Errorf("%s: NamesList() = %q after failed Adds, want %q", kind, got, "held")
		}
	}
}

// TestListingIgnoresRegistrationOrder: every registration sequence of
// the same entries lists them alike, by order, and All hands out a copy
// its caller may mutate.
func TestListingIgnoresRegistrationOrder(t *testing.T) {
	entries := []struct {
		name  string
		order int
	}{{"c", 30}, {"a", 10}, {"d", 40}, {"b", 20}}
	for _, kind := range kinds {
		for rot := range entries {
			r := New[string](kind)
			for i := range entries {
				e := entries[(rot+i)%len(entries)]
				r.Add(e.name, e.order, strings.ToUpper(e.name))
			}
			if got, want := r.NamesList(), "a, b, c, d"; got != want {
				t.Errorf("%s, rotation %d: NamesList() = %q, want %q", kind, rot, got, want)
			}
			all := r.All()
			if want := []string{"A", "B", "C", "D"}; !slices.Equal(all, want) {
				t.Errorf("%s, rotation %d: All() = %v, want %v", kind, rot, all, want)
			}
			all[0] = "clobbered"
			if r.All()[0] != "A" {
				t.Errorf("%s: mutating All()'s result reached the registry", kind)
			}
		}
	}
}

// TestConcurrentUse: registration and every read may run at once
// (run under -race).
func TestConcurrentUse(t *testing.T) {
	r := New[int]("scheme")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				order := g*100 + i
				r.Add(fmt.Sprint(order), order, order)
				if d, ok := r.Lookup(fmt.Sprint(order)); !ok || d != order {
					t.Errorf("Lookup(%d) = %d, %v", order, d, ok)
				}
				r.All()
				r.NamesList()
			}
		}()
	}
	wg.Wait()
	all := r.All()
	if len(all) != 200 || !slices.IsSorted(all) {
		t.Errorf("All() after concurrent Adds has %d entries, sorted %v", len(all), slices.IsSorted(all))
	}
}

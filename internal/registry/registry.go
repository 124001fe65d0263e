// Package registry is the repo's one name-and-order registry, the store
// behind internal/scheme's control schemes and internal/governor's
// power-cap governors. Each entry has a stable name and a distinct
// display order; a Registry rejects an invalid or duplicate name and a
// reused order at registration, and lists its entries in display order
// whatever the registration sequence, so listings stay byte-stable.
package registry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Registry holds the entries of one kind (schemes, governors). Entries
// are added from package init functions, single-goroutine by the
// language spec; the mutex also makes test-time registration race-safe.
type Registry[D any] struct {
	kind    string
	mu      sync.Mutex
	byName  map[string]D
	ordered []entry[D] // every entry in display order
}

type entry[D any] struct {
	name  string
	order int
	d     D
}

// New returns an empty registry whose panics name kind ("scheme",
// "governor").
func New[D any](kind string) *Registry[D] {
	return &Registry[D]{kind: kind, byName: make(map[string]D)}
}

// Add registers d under name at display position order. It panics on
// an empty or whitespace-carrying name, a duplicate name, or a reused
// order: every one of these is a programming error that must surface
// at init time, not as a silently shadowed entry at run time. A
// panicking Add inserts nothing.
func (r *Registry[D]) Add(name string, order int, d D) {
	if name == "" || strings.TrimSpace(name) != name {
		panic(fmt.Sprintf("%s: invalid name %q", r.kind, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("%s: duplicate registration of %q", r.kind, name))
	}
	i := sort.Search(len(r.ordered), func(i int) bool { return r.ordered[i].order >= order })
	if i < len(r.ordered) && r.ordered[i].order == order {
		panic(fmt.Sprintf("%s: %q reuses order %d of %q", r.kind, name, order, r.ordered[i].name))
	}
	r.byName[name] = d
	r.ordered = slices.Insert(r.ordered, i, entry[D]{name, order, d})
}

// Lookup returns the entry registered under name.
func (r *Registry[D]) Lookup(name string) (D, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.byName[name]
	return d, ok
}

// All returns every entry in display order. The slice is freshly
// allocated; callers may keep or mutate it.
func (r *Registry[D]) All() []D {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]D, len(r.ordered))
	for i, e := range r.ordered {
		out[i] = e.d
	}
	return out
}

// NamesList renders every name in display order as one comma-separated
// string for error messages and flag usage texts.
func (r *Registry[D]) NamesList() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.ordered))
	for i, e := range r.ordered {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the public calls the ledger times. A
// span has a name, a start, an end and a parent (0 = root). Spans stay
// in memory until write. Per-call seams that fire millions of times
// (Observe, Next, Apportion) are not spans: they aggregate into a
// counter each. A nil *tracer records nothing.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	counters map[string]*counter
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// counter aggregates one per-call seam: how often it ran and, where
// the seam is timed, the host time inside it.
type counter struct {
	calls   atomic.Int64
	totalNs atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]*counter)}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// counter returns the named aggregate, creating it on first use.
func (t *tracer) counter(name string) *counter {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &counter{}
		t.counters[name] = c
	}
	return c
}

// selfTimes returns each span's duration minus the part of it that
// its children cover.
func (t *tracer) selfTimes() []int64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := int64(0)
		lo, hi := int64(-1), int64(-1)
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > hi {
				covered += hi - lo
				lo, hi = start, end
			} else if end > hi {
				hi = end
			}
		}
		covered += hi - lo
		self[i] = s.End - s.Start - covered
	}
	return self
}

// summary prints, per span name, the count, total and self time, then
// every counter.
func (t *tracer) summary() {
	type agg struct {
		n           int
		total, self int64
	}
	byName := make(map[string]*agg)
	var names []string
	self := t.selfTimes()
	for i, s := range t.spans {
		a, ok := byName[s.Name]
		if !ok {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += self[i]
	}
	sort.Strings(names)
	fmt.Printf("%-44s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, name := range names {
		a := byName[name]
		fmt.Printf("%-44s %8d %12.3f %12.3f\n", name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	var cnames []string
	for name := range t.counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	fmt.Printf("%-44s %14s %12s\n", "counter", "calls", "total ms")
	for _, name := range cnames {
		c := t.counters[name]
		fmt.Printf("%-44s %14d %12.3f\n", name, c.calls.Load(), float64(c.totalNs.Load())/1e6)
	}
}

// write saves every span and counter as JSON to path.
func (t *tracer) write(path string) error {
	type counterOut struct {
		Calls   int64 `json:"calls"`
		TotalNs int64 `json:"total_ns"`
	}
	out := struct {
		Spans    []span                `json:"spans"`
		SelfNs   []int64               `json:"self_ns"`
		Counters map[string]counterOut `json:"counters"`
	}{Spans: t.spans, SelfNs: t.selfTimes(), Counters: make(map[string]counterOut)}
	for name, c := range t.counters {
		out.Counters[name] = counterOut{c.calls.Load(), c.totalNs.Load()}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

package experiment

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"mcddvfs/internal/control"
	"mcddvfs/internal/trace"
)

// memoOpt is a small render every catalog artifact accepts, on a
// harness of the test's own: adpcm_encode classifies fast (fig11 has a
// group to plot) and 5,000 instructions give captransient its governor
// epochs.
func memoOpt() Options {
	return Options{Instructions: 5000, Seed: 1, Benchmarks: []string{"adpcm_encode", "gzip"}, Schemes: []Scheme{SchemeAdaptive}, Harness: NewHarness()}
}

// uncachedRender renders id in format on an empty harness of its own.
func uncachedRender(t *testing.T, id string, format ArtifactFormat, opt Options) []byte {
	t.Helper()
	return render(t, id, format, uncached(opt))
}

// catalogFormats lists every (artifact, format) pair the catalog
// renders.
func catalogFormats() (ids []string, formats []ArtifactFormat) {
	for _, a := range Artifacts() {
		for _, f := range []ArtifactFormat{FormatText, FormatJSON, FormatSVG} {
			if f == FormatSVG && !a.SVG {
				continue
			}
			ids, formats = append(ids, a.ID), append(formats, f)
		}
	}
	return ids, formats
}

// render renders id in format, failing the test on error.
func render(t *testing.T, id string, format ArtifactFormat, opt Options) []byte {
	t.Helper()
	body, _, err := RenderArtifactContext(context.Background(), id, format, opt)
	if err != nil {
		t.Fatalf("%s.%s: %v", id, format, err)
	}
	return body
}

// wantRenderStats checks the counters of opt's render memo.
func wantRenderStats(t *testing.T, opt Options, label string, hits, misses uint64) {
	t.Helper()
	if h, m := opt.Harness.renderCacheStats(); h != hits || m != misses {
		t.Fatalf("%s: render memo %d hits / %d misses, want %d / %d", label, h, m, hits, misses)
	}
}

// TestRenderMemoHitMatchesUncached: for every catalog artifact and
// format, a render memo hit is byte-identical to a render on an empty
// harness, and neither a miss nor a hit hands out the memo's own bytes.
func TestRenderMemoHitMatchesUncached(t *testing.T) {
	t.Parallel()
	opt := memoOpt()
	ids, formats := catalogFormats()

	want := make([][]byte, len(ids))
	for i := range ids {
		want[i] = uncachedRender(t, ids[i], formats[i], opt)
	}
	for i := range ids {
		clear(render(t, ids[i], formats[i], opt)) // a miss's bytes must not reach the memo
	}
	wantRenderStats(t, opt, "cold", 0, uint64(len(ids)))
	for i := range ids {
		got := render(t, ids[i], formats[i], opt)
		if !bytes.Equal(got, want[i]) {
			t.Errorf("%s.%s: memo hit differs from an uncached render", ids[i], formats[i])
		}
		clear(got) // must not reach the memo
		if again := render(t, ids[i], formats[i], opt); !bytes.Equal(again, want[i]) {
			t.Errorf("%s.%s: mutating a returned render changed the next hit", ids[i], formats[i])
		}
	}
	wantRenderStats(t, opt, "warm", uint64(2*len(ids)), uint64(len(ids)))
}

// TestRenderMemoResetDrops: a harness reset drops the memo and its
// counters, and a render that outlives a reset stores nothing.
func TestRenderMemoResetDrops(t *testing.T) {
	t.Parallel()
	opt := memoOpt()
	render(t, "fig9", FormatText, opt)
	render(t, "fig9", FormatText, opt)
	wantRenderStats(t, opt, "before reset", 1, 1)
	opt.Harness.reset()
	wantRenderStats(t, opt, "after reset", 0, 0)
	render(t, "fig9", FormatText, opt)
	wantRenderStats(t, opt, "first render after reset", 0, 1)

	var k [32]byte
	k[0] = 1
	h := opt.Harness
	if _, err := h.cachedRender(k, func() ([]byte, bool, error) {
		h.reset()
		return []byte("stale"), false, nil
	}); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	_, stored := h.renders[k]
	h.mu.Unlock()
	if stored {
		t.Error("a render that outlived a reset was stored into the new generation")
	}
}

// TestRenderMemoBypasses: a corpus, a RowFlush hook and options whose
// key fails never consult the memo, and render exactly as they do
// without it.
func TestRenderMemoBypasses(t *testing.T) {
	t.Parallel()
	t.Run("corpus", func(t *testing.T) {
		t.Parallel()
		opt := memoOpt()
		corp := opt
		corp.CorpusDir = buildCorpus(t, opt.Seed, opt.Instructions, 1<<10, opt.Benchmarks...)
		want := uncachedRender(t, "fig9", FormatText, corp)
		for i := 0; i < 2; i++ {
			if got := render(t, "fig9", FormatText, corp); !bytes.Equal(got, want) {
				t.Errorf("corpus render %d differs from an uncached one", i)
			}
		}
		wantRenderStats(t, opt, "corpus", 0, 0)
	})

	t.Run("rowflush", func(t *testing.T) {
		t.Parallel()
		opt := memoOpt()
		want := render(t, "fig9", FormatText, opt)
		rows := 0
		flushed := opt
		flushed.RowFlush = func(RowEvent) { rows++ }
		for i := 0; i < 2; i++ {
			if got := render(t, "fig9", FormatText, flushed); !bytes.Equal(got, want) {
				t.Errorf("RowFlush render %d differs from a plain one", i)
			}
		}
		if rows != 2*len(opt.Benchmarks) {
			t.Errorf("RowFlush saw %d rows over two renders, want %d", rows, 2*len(opt.Benchmarks))
		}
		wantRenderStats(t, opt, "rowflush", 0, 1) // the plain render only
	})

	t.Run("key error", func(t *testing.T) {
		t.Parallel()
		opt := memoOpt()
		bad := opt
		bad.MutateAdaptive = func(*control.Config) { panic("mutate") }
		want := render(t, "table1", FormatText, opt)
		for i := 0; i < 2; i++ {
			if got := render(t, "table1", FormatText, bad); !bytes.Equal(got, want) {
				t.Errorf("table1 render %d with a failing key differs", i)
			}
			if _, _, err := RenderArtifactContext(context.Background(), "fig9", FormatText, bad); !errors.Is(err, ErrRunPanicked) {
				t.Errorf("fig9 render %d with a panicking MutateAdaptive = %v, want ErrRunPanicked", i, err)
			}
		}
		wantRenderStats(t, opt, "key error", 0, 1) // the plain table1 only
	})
}

// TestRenderMemoSkipsPartial: a render that succeeds with a failed
// cell behind it is never stored; once the cell's outcome is gone the
// next render is complete, matches an uncached render, and is stored.
func TestRenderMemoSkipsPartial(t *testing.T) {
	t.Parallel()
	opt := memoOpt()
	want := uncachedRender(t, "fig9", FormatText, opt)

	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	spec := newRunSpec(opt)
	k, err := cacheKey(chipProfiles(prof, spec.opt), SchemeAdaptive, spec)
	if err != nil {
		t.Fatal(err)
	}
	h := opt.Harness
	h.mu.Lock()
	h.memo[k] = outcome{err: invalidSpec(errors.New("seeded cell failure"))}
	h.mu.Unlock()

	for i := 0; i < 2; i++ {
		got := render(t, "fig9", FormatText, opt)
		if !strings.Contains(string(got), "omitted") {
			t.Fatalf("render %d with a failed cell is not partial:\n%s", i, got)
		}
	}
	wantRenderStats(t, opt, "partial renders", 0, 2)

	h.mu.Lock()
	delete(h.memo, k)
	h.mu.Unlock()
	for i := 0; i < 2; i++ {
		if got := render(t, "fig9", FormatText, opt); !bytes.Equal(got, want) {
			t.Errorf("render %d after clearing the failed cell differs from an uncached one", i)
		}
	}
	wantRenderStats(t, opt, "complete renders", 1, 3)
}

// TestRenderMemoSkipsPartialFaultSweep: the fault sweep reports a
// failed cell the same way a matrix does.
func TestRenderMemoSkipsPartialFaultSweep(t *testing.T) {
	t.Parallel()
	opt := memoOpt()
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	spec := newRunSpec(opt)
	k, err := cacheKey(chipProfiles(prof, spec.opt), SchemeNone, spec)
	if err != nil {
		t.Fatal(err)
	}
	h := opt.Harness
	h.mu.Lock()
	h.memo[k] = outcome{err: invalidSpec(errors.New("seeded cell failure"))}
	h.mu.Unlock()
	for i := 0; i < 2; i++ {
		if got := render(t, "robustness", FormatText, opt); !strings.Contains(string(got), "failed cell:") {
			t.Fatalf("robustness render %d with a failed baseline is not partial:\n%s", i, got)
		}
	}
	wantRenderStats(t, opt, "partial robustness", 0, 2)
}

// TestPreparedRenderMemoized: the lookup a server makes before
// admission counts a hit and nothing else, serves a copy, and never
// stands for a render the memo may not serve, even when the memo holds
// its digest.
func TestPreparedRenderMemoized(t *testing.T) {
	t.Parallel()
	opt := memoOpt()
	p, err := PrepareRender("fig9", FormatText, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Memoized(); ok {
		t.Fatal("an empty memo holds fig9")
	}
	wantRenderStats(t, opt, "lookup before the render", 0, 0)
	want, err := p.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantRenderStats(t, opt, "the render", 0, 1)
	for i := 0; i < 2; i++ {
		got, ok := p.Memoized()
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("lookup %d after the render: %v, %d bytes, want the rendered %d", i, ok, len(got), len(want))
		}
		clear(got) // must not reach the memo
	}
	wantRenderStats(t, opt, "two lookups", 2, 1)

	flushed := opt
	flushed.RowFlush = func(RowEvent) {}
	bad := opt
	bad.MutateAdaptive = func(*control.Config) { panic("mutate") }
	for name, o := range map[string]Options{"RowFlush": flushed, "key error": bad} {
		q, err := PrepareRender("fig9", FormatText, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := q.Memoized(); ok {
			t.Errorf("%s: the memo stood for a render it may not serve", name)
		}
		if _, err := q.Key(); name == "key error" && !errors.Is(err, ErrRunPanicked) {
			t.Errorf("Key with a panicking MutateAdaptive = %v, want ErrRunPanicked", err)
		}
	}
	wantRenderStats(t, opt, "bypassed lookups", 2, 1)
}

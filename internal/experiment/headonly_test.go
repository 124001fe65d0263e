package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"mcddvfs/internal/mcd"
)

// headOnlyOpt is a disk-cached matrix whose benchmarks include
// epic_decode, so Figure 8's run is one of its cells.
func headOnlyOpt(t *testing.T) Options {
	opt := diskOpt(t)
	opt.Benchmarks = []string{"epic_decode", "gzip"}
	return opt
}

// elidedCount returns how many of h's memoized results are
// series-elided.
func elidedCount(h *Harness) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, o := range h.memo {
		if o.elided {
			n++
		}
	}
	return n
}

// warmFromDisk runs opt's matrix cold into its disk cache, resets the
// harness and runs the matrix again from disk: every cell is one disk
// hit, and every controlled cell is memoized series-elided. It returns
// the cold matrix's results as JSON.
func warmFromDisk(t *testing.T, opt Options) []byte {
	t.Helper()
	cold, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, cold.Results)
	opt.Harness.reset()
	before, _ := opt.Harness.diskCacheStats()
	warm, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := opt.Harness.diskCacheStats()
	controlled := len(opt.Benchmarks) * len(ControlledSchemes())
	cells := controlled + len(opt.Benchmarks)
	if got := after.Hits - before.Hits; got != uint64(cells) {
		t.Errorf("warm matrix hit disk %d times, want %d (every cell once)", got, cells)
	}
	if n := elidedCount(opt.Harness); n != controlled {
		t.Errorf("%d series-elided results memoized, want %d (the controlled cells)", n, controlled)
	}
	if got := mustJSON(t, warm.Results); !bytes.Equal(got, want) {
		t.Error("warm-from-disk matrix differs from the cold one")
	}
	return want
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// entryBytes returns r's entry codec bytes as a one-core chip, head
// then tail.
func entryBytes(r *mcd.Result) ([]byte, error) {
	head, tail, err := (&mcd.ChipResult{Cores: []*mcd.Result{r}, Metrics: r.Metrics}).MarshalParts()
	return append(head, tail...), err
}

// seriesReads returns, as bytes, what each caller that reads occupancy
// series gets under opt: every controlled cell's RunOneContext, as
// JSON and in the entry codec, ClassifyBenchmarks as JSON, and Figure 8
// rendered. It reports failures with t.Error, so it may run off the
// test's goroutine.
func seriesReads(t *testing.T, opt Options) map[string][]byte {
	ctx := context.Background()
	out := make(map[string][]byte)
	add := func(name string, b []byte, err error) {
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		out[name] = b
	}
	for _, b := range opt.Benchmarks {
		for _, s := range ControlledSchemes() {
			name := "run " + b + "/" + string(s)
			r, err := RunOneContext(ctx, b, s, opt)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if len(r.QueueSamples) == 0 {
				t.Errorf("%s returned no occupancy series", name)
			}
			js, err := json.Marshal(r)
			add(name+" json", js, err)
			entry, err := entryBytes(r)
			add(name+" entry", entry, err)
		}
	}
	classes, err := ClassifyBenchmarks(opt)
	if err == nil {
		var js []byte
		js, err = json.Marshal(classes)
		add("classify", js, err)
	} else {
		add("classify", nil, err)
	}
	fig8, _, err := RenderArtifactContext(ctx, "fig8", FormatText, opt)
	add("fig8", fig8, err)
	return out
}

// sameReads fails for every caller whose bytes differ between got
// and want.
func sameReads(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d reads, want %d", len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s after a warm head-only matrix differs from a fresh harness's", name)
		}
	}
}

// TestHeadOnlyMatrixKeepsSeriesCallersWhole asserts a warm-from-disk
// matrix, which reads its controlled cells head-only, leaves every
// caller that reads occupancy series the bytes a fresh harness gives
// it: a controlled cell's RunOneContext misses the elided result,
// reads the whole entry from disk, and replaces it in the memo.
func TestHeadOnlyMatrixKeepsSeriesCallersWhole(t *testing.T) {
	t.Parallel()
	opt := headOnlyOpt(t)
	warmFromDisk(t, opt)

	before, _ := opt.Harness.diskCacheStats()
	got := seriesReads(t, opt)
	after, _ := opt.Harness.diskCacheStats()
	controlled := len(opt.Benchmarks) * len(ControlledSchemes())
	if hits := after.Hits - before.Hits; hits != uint64(controlled) {
		t.Errorf("series readers hit disk %d times, want %d (each elided cell once, read whole)", hits, controlled)
	}
	if n := elidedCount(opt.Harness); n != 0 {
		t.Errorf("%d series-elided results left in the memo after every cell was read whole", n)
	}

	fresh := opt
	fresh.CacheDir, fresh.Harness = "", NewHarness()
	sameReads(t, got, seriesReads(t, fresh))
}

// TestHeadOnlyAndFullRequestsRace asserts head-only and full requests
// for the same keys, racing on one harness warm from disk, each get
// what they asked for: every matrix equals the cold one, and every
// series reader gets a fresh harness's bytes.
func TestHeadOnlyAndFullRequestsRace(t *testing.T) {
	t.Parallel()
	opt := headOnlyOpt(t)
	want := warmFromDisk(t, opt)
	opt.Harness.reset()

	fresh := opt
	fresh.CacheDir, fresh.Harness = "", NewHarness()
	wantReads := seriesReads(t, fresh)

	const rounds = 3
	var wg sync.WaitGroup
	matrices := make([][]byte, rounds)
	reads := make([]map[string][]byte, rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			m, err := RunMatrixContext(context.Background(), opt)
			if err != nil {
				t.Error(err)
				return
			}
			if matrices[i], err = json.Marshal(m.Results); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			reads[i] = seriesReads(t, opt)
		}()
	}
	wg.Wait()
	for i := 0; i < rounds; i++ {
		if !bytes.Equal(matrices[i], want) {
			t.Errorf("matrix %d, racing series readers, differs from the cold matrix", i)
		}
		sameReads(t, reads[i], wantReads)
	}
	if st, _ := opt.Harness.diskCacheStats(); st.Corrupt != 0 || st.ReadErrors != 0 {
		t.Errorf("disk stats = %+v, want no corrupt entry and no read error", st)
	}
}

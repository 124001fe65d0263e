package experiment

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// diskOpt is smallOpt — on a harness of the test's own — with the
// persistent cache rooted in a fresh per-test directory.
func diskOpt(t *testing.T) Options {
	t.Helper()
	opt := smallOpt()
	opt.CacheDir = t.TempDir()
	return opt
}

// entryCount returns how many published cache entries dir holds.
func entryCount(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestDiskCacheServesAcrossReset asserts the persistence contract: a
// result computed before a harness reset (which models process death
// for the in-process level) is served from disk afterwards, deeply
// equal to a fresh simulation. A single core and a wider chip alike
// are stored as the whole mcd.ChipResult.
func TestDiskCacheServesAcrossReset(t *testing.T) {
	t.Parallel()
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		cores     int
		powerCapW float64
	}{
		{"1-core", 1, 0},
		{"4-core-capped", 4, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opt := diskOpt(t)
			opt.Cores, opt.PowerCapW = tc.cores, tc.powerCapW

			if _, err := RunChipContext(context.Background(), []string{"gzip"}, SchemeAdaptive, opt); err != nil {
				t.Fatal(err)
			}
			if n := entryCount(t, opt.CacheDir); n != 1 {
				t.Fatalf("cold run published %d entries, want 1", n)
			}

			opt.Harness.reset() // drop the in-process level; disk must carry the result
			before, _ := opt.Harness.diskCacheStats()
			warm, err := RunChipContext(context.Background(), []string{"gzip"}, SchemeAdaptive, opt)
			if err != nil {
				t.Fatal(err)
			}
			after, _ := opt.Harness.diskCacheStats()
			if got := after.Hits - before.Hits; got != 1 {
				t.Errorf("warm run hit disk %d times, want 1", got)
			}

			fopt := opt
			fopt.CacheDir, fopt.Harness = "", NewHarness()
			fresh, err := RunChipContext(context.Background(), []string{"gzip"}, SchemeAdaptive, fopt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, fresh) {
				t.Errorf("disk round trip changed the result:\n warm  %+v\n fresh %+v", warm, fresh)
			}

			// The entry's own type: the whole chip result, one core or four.
			store, err := opt.Harness.diskStore(opt.CacheDir, 0)
			if err != nil {
				t.Fatal(err)
			}
			dopt := opt.withDefaults()
			k, err := cacheKey(chipProfiles(prof, dopt), SchemeAdaptive, &runSpec{opt: dopt})
			if err != nil {
				t.Fatal(err)
			}
			var stored mcd.ChipResult
			if err := store.Get(k, &stored); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&stored, fresh) {
				t.Errorf("entry is not the %d-core chip result", tc.cores)
			}
		})
	}
}

// TestDiskCacheMatrixWarmRun asserts a full matrix re-rendered after a
// simulated restart is served entirely from disk and metric-identical.
func TestDiskCacheMatrixWarmRun(t *testing.T) {
	t.Parallel()
	opt := diskOpt(t)

	cold, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(opt.Benchmarks) * (1 + len(ControlledSchemes()))
	if n := entryCount(t, opt.CacheDir); n != cells {
		t.Fatalf("cold matrix published %d entries, want %d", n, cells)
	}

	opt.Harness.reset()
	before, _ := opt.Harness.diskCacheStats()
	warm, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := opt.Harness.diskCacheStats()
	if got := after.Hits - before.Hits; got != uint64(cells) {
		t.Errorf("warm matrix hit disk %d times, want %d (every cell)", got, cells)
	}
	for _, b := range opt.Benchmarks {
		for s, want := range cold.Results[b] {
			got := warm.Results[b][s]
			if got == nil {
				t.Fatalf("%s/%s missing from warm matrix", b, s)
			}
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Errorf("%s/%s metrics differ after disk round trip", b, s)
			}
		}
	}
}

// TestDiskCacheEntriesDeterministic asserts entries are a function of
// their results alone: two fresh harnesses that write the same matrix
// into directories of their own publish the same files, byte for byte.
func TestDiskCacheEntriesDeterministic(t *testing.T) {
	t.Parallel()
	var dirs [2]string
	for i := range dirs {
		opt := diskOpt(t)
		if _, err := RunMatrixContext(context.Background(), opt); err != nil {
			t.Fatal(err)
		}
		dirs[i] = opt.CacheDir
	}
	paths, err := filepath.Glob(filepath.Join(dirs[0], "*.res"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("first matrix published no entries (err %v)", err)
	}
	if n := entryCount(t, dirs[1]); n != len(paths) {
		t.Fatalf("matrices published %d and %d entries", len(paths), n)
	}
	for _, p := range paths {
		want, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dirs[1], filepath.Base(p)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: entries of the same result differ (%d and %d bytes)", filepath.Base(p), len(want), len(got))
		}
	}
}

// TestDiskCacheCorruptEntryResimulates asserts the harness treats a
// damaged entry as a miss: the cell re-simulates, produces the same
// result, and heals the entry on disk.
func TestDiskCacheCorruptEntryResimulates(t *testing.T) {
	t.Parallel()
	opt := diskOpt(t)

	cold, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(opt.CacheDir, "*.res"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want one entry, got %v (err %v)", matches, err)
	}
	blob, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(matches[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	opt.Harness.reset()
	warm, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Metrics, warm.Metrics) {
		t.Error("re-simulation after corruption produced different metrics")
	}
	if n := entryCount(t, opt.CacheDir); n != 1 {
		t.Errorf("corrupt entry was not healed: %d entries on disk", n)
	}
}

// TestDiskCacheMigratesV1Entries asserts an encoding bump retires old
// entries in place: an entry whose header carries the previous format
// version, published under a current key, misses as stale, is deleted,
// re-simulated and rewritten at the same path in the current version,
// and the re-rendered artifact is byte-identical. Get rejects on the
// header version before it reads the payload, so restamping a current
// entry's header is a faithful v1 entry for this purpose.
func TestDiskCacheMigratesV1Entries(t *testing.T) {
	t.Parallel()
	opt := diskOpt(t)
	ctx := context.Background()

	cold, _, err := RenderArtifactContext(ctx, "fig9", FormatText, opt)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(opt.CacheDir, "*.res"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("cold render published no entries (err %v)", err)
	}
	for _, p := range paths {
		restampVersion(t, p, 1)
	}

	opt.Harness.reset()
	before, _ := opt.Harness.diskCacheStats()
	warm, _, err := RenderArtifactContext(ctx, "fig9", FormatText, opt)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := opt.Harness.diskCacheStats()
	n := uint64(len(paths))
	if got := after.Stale - before.Stale; got != n {
		t.Errorf("%d entries counted stale, want %d", got, n)
	}
	if got := after.Hits - before.Hits; got != 0 {
		t.Errorf("%d v1 entries were served, want none", got)
	}
	if got := after.Writes - before.Writes; got != n {
		t.Errorf("%d entries rewritten, want %d", got, n)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("artifact re-rendered over v1 entries differs from the cold render")
	}
	again, err := filepath.Glob(filepath.Join(opt.CacheDir, "*.res"))
	if err != nil || !reflect.DeepEqual(again, paths) {
		t.Fatalf("entries moved: %v -> %v (err %v)", paths, again, err)
	}
	for _, p := range again {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(blob[4:8]); v != diskcache.FormatVersion {
			t.Errorf("%s: rewritten as v%d, want v%d", filepath.Base(p), v, diskcache.FormatVersion)
		}
	}
}

// restampVersion rewrites the format version in an entry's header
// (magic(4) | version(u32 LE) | ...).
func restampVersion(t *testing.T, path string, version uint32) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[4:8], version)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCacheSkipsTransientErrors asserts a timed-out run persists
// nothing: the next attempt with a saner deadline must actually
// simulate, not replay the failure from disk.
func TestDiskCacheSkipsTransientErrors(t *testing.T) {
	t.Parallel()
	opt := diskOpt(t)
	opt.Timeout = time.Nanosecond

	_, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt)
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("nanosecond budget did not time out: %v", err)
	}
	if n := entryCount(t, opt.CacheDir); n != 0 {
		t.Fatalf("transient failure persisted %d entries, want 0", n)
	}

	opt.Timeout = time.Minute
	if _, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt); err != nil {
		t.Fatalf("run after transient failure: %v", err)
	}
	if n := entryCount(t, opt.CacheDir); n != 1 {
		t.Errorf("clean retry published %d entries, want 1", n)
	}
}

// TestDiskCacheUnusableDirDegrades asserts a cache directory that
// cannot be created costs persistence, never correctness: runs fall
// back to simulation and succeed.
func TestDiskCacheUnusableDirDegrades(t *testing.T) {
	t.Parallel()
	opt := smallOpt()
	// A regular file where the directory should go: MkdirAll fails.
	block := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(block, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	opt.CacheDir = block

	if _, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt); err != nil {
		t.Fatalf("run with unusable cache dir failed: %v", err)
	}
	if _, err := opt.Harness.diskCacheStats(); err == nil {
		t.Error("diskCacheStats does not surface the open failure")
	}
}

// TestDiskStoreOpenErrorsPerDirectory asserts every unusable cache
// directory keeps its own open error — reopening the first after a
// second failed returns the first's error — and that diskCacheStats
// reports the first failure in open order.
func TestDiskStoreOpenErrorsPerDirectory(t *testing.T) {
	t.Parallel()
	h := NewHarness()
	var dirs [2]string
	var errs [2]error
	for i := range dirs {
		// A regular file where the directory should go: MkdirAll fails.
		dirs[i] = filepath.Join(t.TempDir(), "blocked")
		if err := os.WriteFile(dirs[i], []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, errs[i] = h.diskStore(dirs[i], 0); errs[i] == nil {
			t.Fatalf("DiskStore(%s) opened a regular file", dirs[i])
		}
	}
	for i, dir := range dirs {
		if _, err := h.diskStore(dir, 0); err != errs[i] {
			t.Errorf("DiskStore(%s) = %v, want its own open error %v", dir, err, errs[i])
		}
	}
	if _, err := h.diskCacheStats(); err != errs[0] {
		t.Errorf("diskCacheStats error = %v, want the first failure %v", err, errs[0])
	}
}

// TestTraceSharingTransparent asserts shared-trace replay is
// semantics-free: every cell of a matrix, whose streams replay one
// recording per benchmark, is metric-identical to the same cell
// simulated over a stream generated for it alone.
func TestTraceSharingTransparent(t *testing.T) {
	t.Parallel()
	opt := smallOpt()
	shared, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	spec := newRunSpec(opt)
	for _, b := range opt.Benchmarks {
		prof, err := trace.ByName(b)
		if err != nil {
			t.Fatal(err)
		}
		for s, got := range shared.Results[b] {
			gen, err := trace.NewGenerator(prof, trace.StreamSeed(spec.opt.Seed), spec.opt.Instructions)
			if err != nil {
				t.Fatal(err)
			}
			cr, err := runChip(context.Background(), spec.opt, chipProfiles(prof, spec.opt), s, gen)
			if err != nil {
				t.Fatal(err)
			}
			want := cr.Aggregate()
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Errorf("%s/%s metrics differ under trace sharing:\n generated %+v\n shared    %+v",
					b, s, want.Metrics, got.Metrics)
			}
			if want.IPC != got.IPC {
				t.Errorf("%s/%s IPC differs under trace sharing: %v vs %v", b, s, want.IPC, got.IPC)
			}
		}
	}
}

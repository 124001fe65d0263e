package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"mcddvfs/internal/mcd"
)

// payload is the value type the store holds in practice; its entry
// codec is the store's encoding.BinaryMarshaler contract at work.
type payload = mcd.Result

// sampleQueue names the one occupancy series samplePayload fills.
const sampleQueue = mcd.NameInt

// samplePayload is a Result whose occupancy series holds n samples,
// some above 255 once n passes 256 so the series takes its wide form:
// 2 bytes a sample, on disk and in memory.
func samplePayload(n int) *payload {
	return seriesPayload(n, func(i int) uint16 { return uint16(i % 300) })
}

// seriesPayload is samplePayload with the i'th sample sample(i).
func seriesPayload(n int, sample func(int) uint16) *payload {
	samples := make([]uint16, n)
	for i := range samples {
		samples[i] = sample(i)
	}
	series := mcd.NewSeries(samples)
	return &payload{
		Benchmark:      "gzip",
		Scheme:         "adaptive",
		Domains:        map[string]mcd.DomainStats{mcd.NameInt: {EnergyJ: 1.5, Cycles: 7}},
		QueueSamples:   map[string]mcd.Series{sampleQueue: series},
		IPC:            -2.25,
		RetiredByClass: map[string]int64{"ialu": 123, "load": 456},
	}
}

func key(b byte) [sha256.Size]byte {
	var k [sha256.Size]byte
	k[0] = b
	return k
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := samplePayload(1000)
	if err := s.Put(key(1), want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(1), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Errorf("round trip mutated the payload:\n want %+v\n got  %+v", want, got)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 write", st)
	}
}

func TestGetMiss(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(9), &got); !errors.Is(err, ErrMiss) {
		t.Fatalf("Get on empty store = %v, want ErrMiss", err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 miss", st)
	}
}

// entryFile returns the single *.res file in the store directory.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one entry file, got %v (err %v)", matches, err)
	}
	return matches[0]
}

// TestCorruptEntryFallsBack asserts a bit-flipped payload fails its
// checksum, reports ErrCorrupt, and is deleted so the slot heals.
func TestCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := samplePayload(64)
	if err := s.Put(key(2), want); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-3] ^= 0x40 // flip one payload bit
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var got payload
	if err := s.Get(key(2), &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on corrupt entry = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt entry was not deleted")
	}
	// The slot works again after a rewrite.
	if err := s.Put(key(2), want); err != nil {
		t.Fatal(err)
	}
	if err := s.Get(key(2), &got); err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("stats = %+v, want 1 corrupt", st)
	}
}

// TestTruncatedEntryFallsBack covers the torn-write crash shape.
func TestTruncatedEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(3), samplePayload(128)); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	if err := os.Truncate(path, headerSize+5); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(3), &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on truncated entry = %v, want ErrCorrupt", err)
	}
}

// v3Payload is the payload entry format 3 wrote for a Result
// {Benchmark: "gzip", Scheme: "adaptive"} whose INT series is
// {256, 0, 3}, in the float64 series form format 4 retired.
const v3Payload = "04677a697008616461707469766500000000000000000000000203494e5419020000000000007040" +
	"00000000000000000000000000000840000000000000000000000000000000000000000000000000" +
	"0000000000000000000000000000000000000000"

// entryBytes frames payload as an entry of the given format version.
func entryBytes(version uint32, payload []byte) []byte {
	blob := make([]byte, headerSize, headerSize+len(payload))
	copy(blob, entryMagic)
	binary.LittleEndian.PutUint32(blob[4:8], version)
	sum := sha256.Sum256(payload)
	copy(blob[8:8+sha256.Size], sum[:])
	binary.LittleEndian.PutUint64(blob[8+sha256.Size:], uint64(len(payload)))
	return append(blob, payload...)
}

// TestVersionMismatchFallsBack asserts an entry of another
// FormatVersion — a version-3 entry, as the store wrote before the
// run-length series form, or one from a future version — misses with
// ErrVersionMismatch and is deleted, and the next Put rewrites the slot
// at the same path in the current version.
func TestVersionMismatchFallsBack(t *testing.T) {
	want := samplePayload(16)
	v3, err := hex.DecodeString(v3Payload)
	if err != nil {
		t.Fatal(err)
	}
	current, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version uint32
		payload []byte
	}{{3, v3}, {FormatVersion + 1, current}} {
		dir := t.TempDir()
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := s.path(key(4))
		if err := os.WriteFile(path, entryBytes(tc.version, tc.payload), 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		if err := s.Get(key(4), &got); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("Get on v%d entry = %v, want ErrVersionMismatch", tc.version, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("v%d entry was not deleted", tc.version)
		}
		if st := s.Stats(); st.Stale != 1 {
			t.Errorf("v%d: stats = %+v, want 1 stale", tc.version, st)
		}
		if err := s.Put(key(4), want); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("v%d entry was not rewritten at its path: %v", tc.version, err)
		}
		if v := binary.LittleEndian.Uint32(blob[4:8]); v != FormatVersion {
			t.Errorf("v%d entry rewritten as v%d, want v%d", tc.version, v, FormatVersion)
		}
		if err := s.Get(key(4), &got); err != nil || !reflect.DeepEqual(*want, got) {
			t.Errorf("rewritten v%d entry: err %v, round trip %v", tc.version, err, reflect.DeepEqual(*want, got))
		}
	}
}

// TestConcurrentWritersSameKey asserts racing writers of one key leave
// exactly one complete, decodable entry (atomic rename publication).
func TestConcurrentWritersSameKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := samplePayload(2048)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.Put(key(5), want); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var got payload
	if err := s.Get(key(5), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Error("entry torn by concurrent writers")
	}
	entryFile(t, dir) // asserts exactly one entry and no leaked temp files beyond tmp-* cleanup
	leftovers, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(leftovers) != 0 {
		t.Errorf("leaked temp files: %v", leftovers)
	}
}

// TestGCEvictsOldestFirst asserts the size cap is enforced in
// LRU-by-mtime order: the untouched oldest entries go first and the
// most recently used survive.
func TestGCEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Four ~280 KB entries against a 1 MiB cap: at most 3 fit.
	base := time.Now().Add(-time.Hour)
	for i := byte(0); i < 4; i++ {
		if err := s.Put(key(i), samplePayload(140_000)); err != nil {
			t.Fatal(err)
		}
		// Spread mtimes a minute apart, oldest = key(0).
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.path(key(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	evicted, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if evicted == 0 {
		t.Fatal("GC evicted nothing over a full cap")
	}
	var got payload
	if err := s.Get(key(0), &got); !errors.Is(err, ErrMiss) {
		t.Errorf("oldest entry survived GC (err %v)", err)
	}
	if err := s.Get(key(3), &got); err != nil {
		t.Errorf("newest entry was evicted: %v", err)
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Errorf("stats = %+v, want evictions recorded", st)
	}
}

// TestGetRefreshesMtime asserts a served entry is touched, so a hit
// protects an old entry from the next GC pass.
func TestGetRefreshesMtime(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(6), samplePayload(8)); err != nil {
		t.Fatal(err)
	}
	path := s.path(key(6))
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(6), &got); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.ModTime().Before(old.Add(time.Hour)) {
		t.Error("Get did not refresh the entry mtime")
	}
}

// TestOpenRunsInitialGC asserts a directory inherited over the cap is
// bounded at Open.
func TestOpenRunsInitialGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 6; i++ {
		if err := s.Put(key(i), samplePayload(140_000)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	var total int64
	for _, m := range matches {
		info, err := os.Stat(m)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > 1<<20 {
		t.Errorf("store holds %d bytes after re-Open, cap is %d", total, 1<<20)
	}
	_ = s2
}

// TestGetReusesReadBuffers is the allocation regression test for the
// warm hit path: once the blob pool is warm, repeated Gets of a
// 400 KB entry must not re-allocate the read buffer. The decoded
// value's own storage (the series, the maps) is a real cost of
// returning data and is excluded by measuring total heap bytes against
// a budget of about the decoded size: the entry codec copies each
// series once, straight out of the pooled buffer, so neither a second
// read buffer nor a decoder-internal copy of the payload fits.
func TestGetReusesReadBuffers(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200_000 // 400 KB of wide series data per entry, on disk and decoded
	if err := s.Put(key(1), samplePayload(n)); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(1), &got); err != nil { // warm the pool
		t.Fatal(err)
	}

	// The least of several single-Get measurements: a Get that finds
	// the pool empty — after a move to another P, or a Put that -race's
	// sync.Pool dropped on purpose — pays for a fresh buffer, and must
	// not decide the test, while a per-Get cost shows in every one.
	const rounds = 9
	perGets := make([]int64, rounds)
	var before, after runtime.MemStats
	runtime.GC()
	for i := range perGets {
		runtime.ReadMemStats(&before)
		var v payload
		if err := s.Get(key(1), &v); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perGets[i] = int64(after.TotalAlloc - before.TotalAlloc)
		if got := v.QueueSamples[sampleQueue].Len(); got != n {
			t.Fatalf("decoded %d samples, want %d", got, n)
		}
	}
	perGet := slices.Min(perGets)
	decoded := int64(n * 2)
	// A warm Get pays for the decoded value itself: the series' copy of
	// its section, plus a few kilobytes of maps, strings and the entry
	// path. Hold the line at the decoded size with 1/8 slack: a fresh
	// read buffer, or any second copy of the series, would cost as much
	// again as the decoded size.
	budget := decoded + decoded/8
	if perGet > budget {
		t.Errorf("warm Get allocates %d B/op, budget %d (decoded payload is %d)",
			perGet, budget, decoded)
	}
}

// TestGetDoesNotAliasReadBuffer asserts a decoded value shares no
// memory with the pooled buffer its entry was read into: scribbling
// over the buffer Get released, then reading another entry into it,
// leaves the value as it was.
func TestGetDoesNotAliasReadBuffer(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, other := samplePayload(4096), seriesPayload(4096, func(i int) uint16 { return uint16(299 + i%2) })
	other.Benchmark, other.Scheme = "swim", "pid"
	if err := s.Put(key(1), want); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(2), other); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(1), &got); err != nil {
		t.Fatal(err)
	}
	// The buffer Get just released is the pool's next one.
	bp := blobPool.Get().(*[]byte)
	scribble := (*bp)[:cap(*bp)]
	for i := range scribble {
		scribble[i] = 0xa5
	}
	blobPool.Put(bp)
	var next payload
	if err := s.Get(key(2), &next); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Error("decoded value changed when its read buffer was reused")
	}
}

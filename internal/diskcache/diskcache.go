// Package diskcache is a content-addressed on-disk result store: the
// persistence layer under the experiment harness's in-process result
// cache. Entries are keyed by the caller's content hash (for the
// harness, the SHA-256 of everything that determines a simulation), so
// a stored value never goes stale — a different input is a different
// key — and the only invalidation ever needed is a FormatVersion bump
// when the encoding itself changes. The version lives in each entry's
// header, not in the key: after a bump an old entry sits at the same
// path as its replacement, misses with ErrVersionMismatch, and is
// deleted and rewritten in place rather than orphaned.
//
// Durability model, in order of the failure modes that matter:
//
//   - Concurrent writers (the harness worker pool, or two processes
//     sharing one directory): every write goes to a unique temp file in
//     the store directory and is published with an atomic rename, so
//     readers only ever observe complete entries and the last writer
//     of a key wins with an identical payload.
//   - Corruption (torn writes on crash, bit rot, truncation): every
//     entry carries a SHA-256 checksum of its payload; Get verifies it
//     and reports ErrCorrupt, deleting the bad file so the slot heals
//     on the next Put. The caller's contract is "any Get error means
//     re-compute", never "trust a damaged entry".
//   - Unbounded growth: the store is size-capped; GC evicts entries in
//     LRU order, approximated by file modification time (Get touches
//     entries it serves). Eviction is never an error — an evicted
//     entry is just a future cache miss.
//   - Transient I/O failures (a flaky network mount, a briefly-full
//     disk): Put retries temp-file creation, writes, and the publishing
//     rename a bounded number of times with exponential backoff before
//     giving up, so a single EIO does not silently drop an entry. Real
//     I/O failures (as opposed to misses and self-healed corruption)
//     are counted in Stats and reported to an optional observer — the
//     hook a circuit breaker latches onto (see internal/serve).
//
// Values are encoded with encoding/gob: binary-exact for float64 and
// several times faster than JSON at the sizes simulation results
// reach. The harness's dominant payload — occupancy and frequency
// series — carries its own compact gob form (mcd.Series,
// mcd.FreqSeries), so an entry costs about a byte per occupancy sample,
// half the two bytes a sample takes in memory.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// FormatVersion is the on-disk encoding version, written into every
// entry header. Bump it whenever the entry header or payload encoding
// changes shape: every entry written by an older version then misses
// with ErrVersionMismatch and is deleted and lazily rewritten at the
// same key, instead of being misdecoded. Version 2 introduced the
// packed occupancy and frequency series (mcd.Series, mcd.FreqSeries).
// Cache keys do not include this number, so a bump keeps every key.
const FormatVersion = 2

// Store error taxonomy. Callers dispatch with errors.Is; every Get
// failure wraps exactly one of these.
var (
	// ErrMiss reports that no entry exists for the key.
	ErrMiss = errors.New("diskcache: miss")
	// ErrCorrupt reports an entry that failed its checksum, header, or
	// payload decode. Get removes the damaged file before returning it.
	ErrCorrupt = errors.New("diskcache: entry corrupt")
	// ErrVersionMismatch reports an entry written under a different
	// FormatVersion. Get removes the stale file before returning it.
	ErrVersionMismatch = errors.New("diskcache: format version mismatch")
)

// entry layout: magic(4) | version(u32 LE) | payload sha256(32) |
// payload length(u64 LE) | gob payload.
const (
	entryMagic  = "MCDR"
	headerSize  = 4 + 4 + sha256.Size + 8
	entrySuffix = ".res"
	tmpPattern  = ".tmp-*"
)

// DefaultMaxBytes caps a store at 2 GiB unless the caller chooses
// otherwise — roomy enough for several full experiment matrices at
// default scale, small enough to stay unremarkable in a results tree.
const DefaultMaxBytes = 2 << 30

// gcEvery is how many Puts pass between size checks; a directory scan
// per write would turn the cache into an O(n²) proposition.
const gcEvery = 64

// Put retry defaults: a transient write/rename failure is retried
// twice more (5 ms then 10 ms apart) before the entry is dropped.
const (
	defaultRetryAttempts = 3
	defaultRetryBackoff  = 5 * time.Millisecond
)

// Stats counts store traffic since Open.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Writes    uint64
	Corrupt   uint64 // checksum/decode failures (self-healed)
	Stale     uint64 // version mismatches (self-healed)
	Evictions uint64
	// ReadErrors counts Gets that failed on real I/O (not misses, not
	// self-healed corruption): the disk, not the data, misbehaved.
	ReadErrors uint64
	// WriteErrors counts Puts that still failed after every retry.
	WriteErrors uint64
	// Retries counts Put attempts beyond the first.
	Retries uint64
}

// Op labels the store operation an observer callback reports on.
type Op string

// Observable operations.
const (
	OpGet Op = "get"
	OpPut Op = "put"
	OpGC  Op = "gc"
)

// Store is one cache directory. It is safe for concurrent use by
// multiple goroutines, and safe (atomic, last-writer-wins) across
// processes sharing the directory.
type Store struct {
	dir      string
	maxBytes int64

	fsMu sync.RWMutex // guards fsys (swappable for fault injection)
	fsys FS

	mu            sync.Mutex // guards stats, the GC cadence counter, retry policy, observer
	stats         Stats
	sincePut      int
	retryAttempts int
	retryBackoff  time.Duration
	observer      func(Op, error)
}

// Open creates (if needed) and returns the store rooted at dir.
// maxBytes caps the directory's total entry size; 0 selects
// DefaultMaxBytes. An initial GC pass bounds a directory inherited
// from earlier runs.
func Open(dir string, maxBytes int64) (*Store, error) {
	return OpenFS(dir, maxBytes, OSFS{})
}

// OpenFS is Open with an explicit filesystem — the seam fault-injection
// tests and chaos tooling use to fail I/O underneath a real store.
func OpenFS(dir string, maxBytes int64, fsys FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("diskcache: empty directory")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: creating %s: %w", dir, err)
	}
	s := &Store{
		dir: dir, maxBytes: maxBytes, fsys: fsys,
		retryAttempts: defaultRetryAttempts, retryBackoff: defaultRetryBackoff,
	}
	if _, err := s.GC(); err != nil {
		return nil, err
	}
	return s, nil
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// fs returns the store's current filesystem.
func (s *Store) fs() FS {
	s.fsMu.RLock()
	defer s.fsMu.RUnlock()
	return s.fsys
}

// SetFS swaps the store's filesystem. Chaos tooling uses it to slide a
// FaultFS under a store that is already serving traffic; in-flight
// operations finish on the filesystem they started with.
func (s *Store) SetFS(fsys FS) {
	if fsys == nil {
		fsys = OSFS{}
	}
	s.fsMu.Lock()
	s.fsys = fsys
	s.fsMu.Unlock()
}

// SetObserver registers fn to be told the outcome of every disk-backed
// operation: err is nil on success (hits, publishes, healthy misses)
// and non-nil on real I/O failure. Exactly the signal a circuit
// breaker needs; fn runs synchronously on the calling goroutine and
// must be cheap and safe for concurrent use.
func (s *Store) SetObserver(fn func(Op, error)) {
	s.mu.Lock()
	s.observer = fn
	s.mu.Unlock()
}

// observe reports an operation outcome to the registered observer.
func (s *Store) observe(op Op, err error) {
	s.mu.Lock()
	fn := s.observer
	s.mu.Unlock()
	if fn != nil {
		fn(op, err)
	}
}

func (s *Store) path(key [sha256.Size]byte) string {
	return filepath.Join(s.dir, hex.EncodeToString(key[:])+entrySuffix)
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// blobPool recycles entry read buffers across Gets. A warm experiment
// matrix replayed from disk reads one multi-megabyte entry per cell;
// without reuse every hit allocates (and promptly garbage-collects) a
// fresh blob, which dominated the warm-disk hit path's allocation
// profile. Buffers are returned to the pool only after gob has copied
// the payload into the caller's value, so no decoded data aliases a
// pooled buffer.
var blobPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// readEntry reads the file into a pooled buffer. The returned release
// func recycles the buffer; the blob must not be used after calling it.
func readEntry(fsys FS, path string) (blob []byte, release func(), err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close() //nolint:errcheck // read-only descriptor
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := int(info.Size())
	bp := blobPool.Get().(*[]byte)
	if cap(*bp) < size {
		*bp = make([]byte, 0, size)
	}
	blob = (*bp)[:size]
	release = func() { blobPool.Put(bp) }
	if _, err := io.ReadFull(f, blob); err != nil {
		release()
		return nil, nil, err
	}
	return blob, release, nil
}

// Get decodes the entry for key into v (a pointer, as for
// gob.Decoder.Decode). A missing entry returns ErrMiss; a damaged or
// stale one is deleted and returns ErrCorrupt or ErrVersionMismatch.
// On success the entry's mtime is refreshed so LRU eviction sees the
// use.
func (s *Store) Get(key [sha256.Size]byte, v any) error {
	fsys := s.fs()
	path := s.path(key)
	blob, release, err := readEntry(fsys, path)
	if errors.Is(err, fs.ErrNotExist) {
		// A miss is a healthy disk answering honestly; observers see it
		// as a success signal.
		s.count(func(st *Stats) { st.Misses++ })
		s.observe(OpGet, nil)
		return fmt.Errorf("%w: %s", ErrMiss, hex.EncodeToString(key[:8]))
	}
	if err != nil {
		s.count(func(st *Stats) { st.Misses++; st.ReadErrors++ })
		s.observe(OpGet, err)
		return fmt.Errorf("%w: reading %s: %v", ErrCorrupt, path, err)
	}
	defer release()
	payload, err := decodeEntry(blob)
	if err != nil {
		fsys.Remove(path) //nolint:errcheck // best-effort self-heal
		if errors.Is(err, ErrVersionMismatch) {
			s.count(func(st *Stats) { st.Stale++; st.Misses++ })
		} else {
			s.count(func(st *Stats) { st.Corrupt++; st.Misses++ })
		}
		// Bit rot and stale versions self-heal; the I/O path worked, so
		// the observer sees success — a breaker must not trip on them.
		s.observe(OpGet, nil)
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		fsys.Remove(path) //nolint:errcheck // best-effort self-heal
		s.count(func(st *Stats) { st.Corrupt++; st.Misses++ })
		s.observe(OpGet, nil)
		return fmt.Errorf("%w: decoding %s: %v", ErrCorrupt, path, err)
	}
	now := time.Now()
	fsys.Chtimes(path, now, now) //nolint:errcheck // LRU hint only
	s.count(func(st *Stats) { st.Hits++ })
	s.observe(OpGet, nil)
	return nil
}

// decodeEntry validates the header and checksum and returns the
// payload bytes.
func decodeEntry(blob []byte) ([]byte, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte entry shorter than header", ErrCorrupt, len(blob))
	}
	if string(blob[:4]) != entryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, blob[:4])
	}
	if v := binary.LittleEndian.Uint32(blob[4:8]); v != FormatVersion {
		return nil, fmt.Errorf("%w: entry v%d, store v%d", ErrVersionMismatch, v, FormatVersion)
	}
	var sum [sha256.Size]byte
	copy(sum[:], blob[8:8+sha256.Size])
	n := binary.LittleEndian.Uint64(blob[8+sha256.Size : headerSize])
	payload := blob[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(payload), n)
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Put encodes v and atomically publishes it as the entry for key:
// the payload goes to a unique temp file in the store directory and is
// renamed into place, so a concurrent Get sees either the old complete
// entry or the new complete entry, never a torn one. Transient I/O
// failures anywhere on that path (temp creation, writes, the rename)
// are retried with exponential backoff (defaultRetryAttempts tries)
// before Put gives up — a brief disk hiccup must not silently drop the
// entry.
func (s *Store) Put(key [sha256.Size]byte, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		// An unencodable value is the caller's bug, not disk weather:
		// no retry, no observer signal.
		return fmt.Errorf("diskcache: encoding entry: %w", err)
	}
	var header [headerSize]byte
	copy(header[:4], entryMagic)
	binary.LittleEndian.PutUint32(header[4:8], FormatVersion)
	sum := sha256.Sum256(payload.Bytes())
	copy(header[8:8+sha256.Size], sum[:])
	binary.LittleEndian.PutUint64(header[8+sha256.Size:], uint64(payload.Len()))

	s.mu.Lock()
	attempts, backoff := s.retryAttempts, s.retryBackoff
	s.mu.Unlock()

	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			s.count(func(st *Stats) { st.Retries++ })
			time.Sleep(backoff << (attempt - 1))
		}
		if err = s.writeEntry(key, header[:], payload.Bytes()); err == nil {
			break
		}
	}
	if err != nil {
		s.count(func(st *Stats) { st.WriteErrors++ })
		s.observe(OpPut, err)
		return fmt.Errorf("diskcache: publishing entry: %w", err)
	}
	s.observe(OpPut, nil)

	s.mu.Lock()
	s.stats.Writes++
	s.sincePut++
	runGC := s.sincePut >= gcEvery
	if runGC {
		s.sincePut = 0
	}
	s.mu.Unlock()
	if runGC {
		// Concurrent GC passes are safe (removals tolerate ENOENT);
		// the cadence counter just keeps them rare. A GC failure is not
		// a Put failure — the entry is already published — so it only
		// reaches the observer.
		if _, gcErr := s.GC(); gcErr != nil {
			s.observe(OpGC, gcErr)
		}
	}
	return nil
}

// writeEntry is one attempt at the temp-write-rename publish. Any
// failure removes the temp file (best effort) so a retried or
// abandoned attempt never leaves a partial entry behind.
func (s *Store) writeEntry(key [sha256.Size]byte, header, payload []byte) error {
	fsys := s.fs()
	tmp, err := fsys.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("temp file: %w", err)
	}
	name := tmp.Name()
	if _, err = tmp.Write(header); err == nil {
		_, err = tmp.Write(payload)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(name) //nolint:errcheck // best-effort cleanup of a failed attempt
		return fmt.Errorf("writing entry: %w", err)
	}
	if err := fsys.Rename(name, s.path(key)); err != nil {
		fsys.Remove(name) //nolint:errcheck // best-effort cleanup of a failed attempt
		return fmt.Errorf("renaming entry: %w", err)
	}
	return nil
}

// GC enforces the size cap, removing the least-recently-used entries
// (oldest mtime first) until the directory's entry total fits. It also
// sweeps abandoned temp files. Returns how many entries it evicted.
func (s *Store) GC() (evicted int, err error) {
	fsys := s.fs()
	dents, err := fsys.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("diskcache: scanning %s: %w", s.dir, err)
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var (
		entries []entry
		total   int64
	)
	for _, de := range dents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		info, ierr := de.Info()
		if ierr != nil {
			continue // deleted underneath us: nothing to account
		}
		if matched, _ := filepath.Match(tmpPattern, name); matched {
			// A live writer's temp file is seconds old; anything older
			// was abandoned by a crashed process.
			if time.Since(info.ModTime()) > time.Hour {
				fsys.Remove(filepath.Join(s.dir, name)) //nolint:errcheck // best-effort sweep
			}
			continue
		}
		if filepath.Ext(name) != entrySuffix {
			continue
		}
		entries = append(entries, entry{filepath.Join(s.dir, name), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= s.maxBytes {
		return 0, nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path // stable tie-break
	})
	for _, e := range entries {
		if total <= s.maxBytes {
			break
		}
		if rmErr := fsys.Remove(e.path); rmErr != nil && !errors.Is(rmErr, fs.ErrNotExist) {
			continue // another process beat us or the file is busy; skip
		}
		total -= e.size
		evicted++
	}
	if evicted > 0 {
		s.count(func(st *Stats) { st.Evictions += uint64(evicted) })
	}
	return evicted, nil
}

// Verify scans dir and validates every published entry end to end
// (magic, version, length, checksum), returning how many entries it
// checked. It is the chaos-test and post-crash audit tool: after a
// storm of injected faults, a clean Verify proves the atomic-publish
// and retry machinery let nothing torn or truncated reach an entry
// slot. Temp files are reported as an error only alongside `strict`,
// since a live writer legitimately owns one for a few milliseconds.
//
//lint:allow unreachable audit oracle the experiment and serve chaos tests share across packages
func Verify(dir string, strict bool) (checked int, err error) {
	dents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("diskcache: verifying %s: %w", dir, err)
	}
	for _, de := range dents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if matched, _ := filepath.Match(tmpPattern, name); matched {
			if strict {
				return checked, fmt.Errorf("diskcache: verifying %s: leftover temp file %s", dir, name)
			}
			continue
		}
		if filepath.Ext(name) != entrySuffix {
			continue
		}
		path := filepath.Join(dir, name)
		blob, rerr := os.ReadFile(path)
		if rerr != nil {
			return checked, fmt.Errorf("diskcache: verifying %s: %w", path, rerr)
		}
		if _, derr := decodeEntry(blob); derr != nil {
			return checked, fmt.Errorf("diskcache: verifying %s: %w", path, derr)
		}
		checked++
	}
	return checked, nil
}

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
//   - Corruption (torn writes on crash, bit rot, truncation): an entry
//     is two parts, a head and a tail, and its header carries a
//     SHA-256 checksum and a length for each. Every read checks the
//     file size against both lengths and the checksum of every part it
//     returns, so every byte a read hands a value was verified in that
//     read; a failed check reports ErrCorrupt and deletes the file, so
//     the slot heals on the next Put. A fault in the tail alone is not
//     seen by a head-only read (GetHead), which never reads the tail;
//     it heals on the next full read. The caller's contract is "any
//     Get error means re-compute", never "trust a damaged entry".
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
// Values bring their own encoding, in two parts: Put takes a Marshaler
// and Get and GetHead an Unmarshaler, and the store frames, checksums
// and publishes the parts without looking inside them. A value puts
// what every reader needs in the head and what only some need in the
// tail; GetHead reads, verifies and decodes the header and the head
// alone. The harness stores every run as an mcd.ChipResult, whose
// hand-written entry codec (internal/mcd/codec.go) is binary-exact for
// float64, byte-deterministic, and decodes a hit in one pass: its head
// holds every scalar and frequency trajectory, each trajectory rebuilt
// from its MHz bits and Insts deltas, the short deltas read inline; its
// tail holds the occupancy series, each checked canonical (a
// run-length section four pairs to a word) and copied once. The series
// cost about a byte per occupancy sample, half the two bytes a sample
// takes in memory, and are most of an entry's bytes. The harness reads
// the tail only where a caller reads occupancy series: a matrix's
// controlled cells, which keep none, are read head-only. Past the
// decode, a hit costs the file read and the SHA-256 of the parts it
// reads.
package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
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
// packed occupancy and frequency series (mcd.Series, mcd.FreqSeries);
// version 3 replaced the gob container with the values' own binary
// codec; version 4 added the run-length occupancy form and replaced
// the float64 form with two-byte samples, so no series takes more
// than two bytes a sample; version 5 split every entry into a head and
// a tail, each with its own checksum and length in the header, so a
// head-only read skips the occupancy series. Cache keys do not
// include this number, so a bump keeps every key.
const FormatVersion = 5

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

// entry layout: magic(4) | version(u32 LE) | head sha256(32) |
// head length(u64 LE) | tail sha256(32) | tail length(u64 LE) | head |
// tail, the parts the value's MarshalParts returned.
const (
	entryMagic  = "MCDR"
	partSize    = sha256.Size + 8 // one part's checksum and length
	headerSize  = 4 + 4 + 2*partSize
	entrySuffix = ".res"
	tmpPattern  = ".tmp-*"
)

// Marshaler is implemented by a value the store can hold.
// MarshalParts returns the value's entry in two parts: the head, which
// every read decodes, and the tail, which only a full read does.
type Marshaler interface {
	MarshalParts() (head, tail []byte, err error)
}

// Unmarshaler is implemented by a value an entry decodes into.
// UnmarshalParts decodes head, then tail unless tail is nil: a
// head-only read (GetHead) passes nil, a full read (Get) a non-nil
// tail even when it is empty. As encoding.BinaryUnmarshaler requires,
// the value must copy whatever it keeps of either part.
type Unmarshaler interface {
	UnmarshalParts(head, tail []byte) error
}

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
	// ReadBytes counts the entry bytes hits read and checksummed: the
	// whole file for Get, the header and the head for GetHead.
	ReadBytes uint64
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
// profile. Buffers are returned to the pool only after UnmarshalParts
// has returned, and (as Unmarshaler requires) a value copies whatever
// it keeps, so no decoded data aliases a pooled buffer.
var blobPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// header is an entry header's checksums and head length; the tail runs
// from the end of the head to the end of the file.
type header struct {
	headSum, tailSum [sha256.Size]byte
	headLen          int
}

// parseHeader validates the entry header at the front of blob against
// an entry file of size bytes: magic, version, and part lengths that
// sum to the bytes after the header.
func parseHeader(blob []byte, size int64) (header, error) {
	// The version comes before the header length: an older version's
	// header may be shorter.
	var h header
	if len(blob) < 8 || string(blob[:4]) != entryMagic {
		return h, fmt.Errorf("%w: bad magic %q", ErrCorrupt, blob[:min(len(blob), 4)])
	}
	if v := binary.LittleEndian.Uint32(blob[4:8]); v != FormatVersion {
		return h, fmt.Errorf("%w: entry v%d, store v%d", ErrVersionMismatch, v, FormatVersion)
	}
	if len(blob) < headerSize {
		return h, fmt.Errorf("%w: %d-byte entry shorter than header", ErrCorrupt, len(blob))
	}
	head, tail := blob[8:8+partSize], blob[8+partSize:headerSize]
	copy(h.headSum[:], head)
	copy(h.tailSum[:], tail)
	headLen := binary.LittleEndian.Uint64(head[sha256.Size:])
	tailLen := binary.LittleEndian.Uint64(tail[sha256.Size:])
	body := uint64(size - headerSize)
	if headLen > body || tailLen != body-headLen {
		return h, fmt.Errorf("%w: %d bytes after the header, header says %d + %d", ErrCorrupt, body, headLen, tailLen)
	}
	h.headLen = int(headLen)
	return h, nil
}

// putHeader writes the header of an entry with the given parts.
func putHeader(dst *[headerSize]byte, head, tail []byte) {
	copy(dst[:4], entryMagic)
	binary.LittleEndian.PutUint32(dst[4:8], FormatVersion)
	for i, part := range [2][]byte{head, tail} {
		at := dst[8+i*partSize:]
		sum := sha256.Sum256(part)
		copy(at, sum[:])
		binary.LittleEndian.PutUint64(at[sha256.Size:], uint64(len(part)))
	}
}

// checkPart verifies one part against its header checksum.
func checkPart(part []byte, sum [sha256.Size]byte, name string) error {
	if sha256.Sum256(part) != sum {
		return fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, name)
	}
	return nil
}

// readTo extends *bp to n bytes, reading the bytes past its current
// length from r. A buffer too small is replaced by one of exactly n
// bytes: pooled buffers hold no slack.
func readTo(r io.Reader, bp *[]byte, n int) error {
	b := *bp
	have := len(b)
	if cap(b) < n {
		b = append(make([]byte, 0, n), b...)
	}
	b = b[:n]
	*bp = b
	_, err := io.ReadFull(r, b[have:])
	return err
}

// readEntry reads the entry at path into *bp, checks its header
// against the file size, and returns its head and, unless headOnly,
// its tail, each verified against its checksum. A head-only read reads
// the header and the head and no further. A damaged or stale entry
// fails with ErrCorrupt or ErrVersionMismatch; any other error is the
// filesystem's.
func readEntry(fsys FS, path string, bp *[]byte, headOnly bool) (head, tail []byte, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close() //nolint:errcheck // read-only descriptor
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := info.Size()
	n := size
	if headOnly {
		n = min(size, headerSize)
	}
	*bp = (*bp)[:0]
	if err := readTo(f, bp, int(n)); err != nil {
		return nil, nil, err
	}
	h, err := parseHeader(*bp, size)
	if err != nil {
		return nil, nil, err
	}
	if headOnly {
		if err := readTo(f, bp, headerSize+h.headLen); err != nil {
			return nil, nil, err
		}
	}
	blob := *bp
	head = blob[headerSize : headerSize+h.headLen]
	if err := checkPart(head, h.headSum, "head"); err != nil {
		return nil, nil, err
	}
	if headOnly {
		return head, nil, nil
	}
	tail = blob[headerSize+h.headLen:]
	if err := checkPart(tail, h.tailSum, "tail"); err != nil {
		return nil, nil, err
	}
	return head, tail, nil
}

// Get decodes the whole entry for key into v, head and tail. A missing
// entry returns ErrMiss; a damaged or stale one, or one v rejects, is
// deleted and returns ErrCorrupt or ErrVersionMismatch. On success the
// entry's mtime is refreshed so LRU eviction sees the use.
func (s *Store) Get(key [sha256.Size]byte, v Unmarshaler) error {
	return s.get(key, v, false)
}

// GetHead is Get for the head alone: it reads, verifies and decodes
// the header and the head, and passes v a nil tail. It still checks
// the file size against both parts' lengths, and counts as one hit or
// miss like Get; a damaged tail goes unseen until a full Get.
func (s *Store) GetHead(key [sha256.Size]byte, v Unmarshaler) error {
	return s.get(key, v, true)
}

func (s *Store) get(key [sha256.Size]byte, v Unmarshaler, headOnly bool) error {
	fsys := s.fs()
	path := s.path(key)
	bp := blobPool.Get().(*[]byte)
	defer blobPool.Put(bp)
	head, tail, err := readEntry(fsys, path, bp, headOnly)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// A miss is a healthy disk answering honestly; observers see it
		// as a success signal.
		s.count(func(st *Stats) { st.Misses++ })
		s.observe(OpGet, nil)
		return fmt.Errorf("%w: %s", ErrMiss, hex.EncodeToString(key[:8]))
	case errors.Is(err, ErrVersionMismatch), errors.Is(err, ErrCorrupt):
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
	case err != nil:
		s.count(func(st *Stats) { st.Misses++; st.ReadErrors++ })
		s.observe(OpGet, err)
		return fmt.Errorf("%w: reading %s: %v", ErrCorrupt, path, err)
	}
	if err := v.UnmarshalParts(head, tail); err != nil {
		fsys.Remove(path) //nolint:errcheck // best-effort self-heal
		s.count(func(st *Stats) { st.Corrupt++; st.Misses++ })
		s.observe(OpGet, nil)
		return fmt.Errorf("%w: decoding %s: %v", ErrCorrupt, path, err)
	}
	now := time.Now()
	fsys.Chtimes(path, now, now) //nolint:errcheck // LRU hint only
	read := uint64(len(*bp))
	s.count(func(st *Stats) { st.Hits++; st.ReadBytes += read })
	s.observe(OpGet, nil)
	return nil
}

// Put encodes v with v.MarshalParts and atomically publishes it as
// the entry for key: the header and both parts go to a unique temp
// file in the store directory, which is renamed into place, so a concurrent Get sees either the old complete
// entry or the new complete entry, never a torn one. Transient I/O
// failures anywhere on that path (temp creation, writes, the rename)
// are retried with exponential backoff (defaultRetryAttempts tries)
// before Put gives up — a brief disk hiccup must not silently drop the
// entry.
func (s *Store) Put(key [sha256.Size]byte, v Marshaler) error {
	head, tail, err := v.MarshalParts()
	if err != nil {
		// An unencodable value is the caller's bug, not disk weather:
		// no retry, no observer signal.
		return fmt.Errorf("diskcache: encoding entry: %w", err)
	}
	var hdr [headerSize]byte
	putHeader(&hdr, head, tail)

	s.mu.Lock()
	attempts, backoff := s.retryAttempts, s.retryBackoff
	s.mu.Unlock()

	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			s.count(func(st *Stats) { st.Retries++ })
			time.Sleep(backoff << (attempt - 1))
		}
		if err = s.writeEntry(key, hdr[:], head, tail); err == nil {
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
func (s *Store) writeEntry(key [sha256.Size]byte, hdr, head, tail []byte) error {
	fsys := s.fs()
	tmp, err := fsys.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("temp file: %w", err)
	}
	name := tmp.Name()
	for _, b := range [3][]byte{hdr, head, tail} {
		if err == nil {
			_, err = tmp.Write(b)
		}
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
// (magic, version, part lengths against the file size, both parts'
// checksums), returning how many entries it
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
		if derr := verifyEntry(blob); derr != nil {
			return checked, fmt.Errorf("diskcache: verifying %s: %w", path, derr)
		}
		checked++
	}
	return checked, nil
}

// verifyEntry checks a whole entry file's header and both parts.
func verifyEntry(blob []byte) error {
	h, err := parseHeader(blob, int64(len(blob)))
	if err != nil {
		return err
	}
	if err := checkPart(blob[headerSize:headerSize+h.headLen], h.headSum, "head"); err != nil {
		return err
	}
	return checkPart(blob[headerSize+h.headLen:], h.tailSum, "tail")
}

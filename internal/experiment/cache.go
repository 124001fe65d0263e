package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"mcddvfs/internal/control"
	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/flight"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// A Harness owns the harness's state: the result memo with its
// flights, the classification, render and key memos, the replay memo
// of recorded traces, and one open disk store per cache directory.
// Options.Harness selects it per call; nil selects the process default,
// which ResetCache, CacheStats, RenderCacheStats, DiskCacheStats and
// DiskStore address. The zero value is not usable; call NewHarness.
//
// The result memo keeps every harness run — RunProfile, matrix cells
// and RunChip alike — keyed by a content hash of everything that
// determines a simulation: the per-core workload profiles, the scheme,
// and the canonicalized options (instruction budget, seed, machine
// configuration — including the fault spec — PID interval, the
// *effect* of MutateAdaptive, and the chip shape). Every
// run is an N-core chip: a single-core run is a 1-core governorless
// chip, whose only core is bit for bit the single-processor machine,
// and single-core callers read that core back through
// ChipResult.Aggregate. The harness regenerates Tables 2-4, Figures
// 7-11, the E1-E5 extensions and the chip artifacts from overlapping
// (workload, scheme, options) triples; with the memo each distinct
// triple is simulated exactly once per harness.
//
// Caching is two-level. The first level is an in-process memo of
// completed outcomes; concurrent requests for a key not yet memoized
// share one resolution on a flight.Group (see cachedRun). The second,
// optional level is a persistent content-addressed store on disk
// (internal/diskcache, enabled by Options.CacheDir): an in-process miss
// consults the store before simulating, and a clean simulation is
// written back, so completed cells survive process death and a warm
// re-render only decodes. Errors never reach disk, and transient ones
// (timeout, cancellation) are not memoized either: they describe an
// attempt, not the simulation.
//
// A matrix keeps no occupancy series of its controlled cells, so it
// resolves them head-only: a disk hit reads, verifies and decodes the
// entry without its series (diskcache.Store.GetHead), and the result
// is memoized marked as series-elided. Every other caller reads series
// and treats an elided memo entry as a miss: it resolves on a flight
// of its own, never a head-only one, reads the full entry, and
// replaces the elided result with the full one.
//
// Cached *mcd.ChipResult values, and the *mcd.Result values callers
// reach through them, are shared between callers and MUST be treated
// as read-only. The one historical mutation site — RunMatrixContext
// stripping QueueSamples from non-baseline cells — copies the struct
// first.
//
// A simulation is deterministic, so which harness a run goes through
// never changes any value a caller observes; it only decides which
// duplicate work is removed.
type Harness struct {
	mu      sync.Mutex
	gen     uint64 // bumped by reset; a resolution memoizes only into its own generation
	memo    map[[sha256.Size]byte]outcome
	flights flight.Group[flightKey, outcome]
	runs    uint64 // cached calls this generation; hits = runs - misses
	misses  uint64 // resolutions that went to disk or simulated
	sims    uint64 // resolutions that simulated: misses no disk entry served

	// ClassifyBenchmarks verdicts, keyed by the cache key of the
	// SchemeNone run each derives from (see cachedClass).
	classes map[[sha256.Size]byte]BenchClass
	spectra uint64 // classifications computed this generation

	// Complete artifact renders, keyed by their render digest (see
	// cachedRender).
	renders                  map[[sha256.Size]byte][]byte
	renderHits, renderMisses uint64 // render lookups this generation

	// The per-Options tails of plain specs' cache keys, keyed by
	// what the encoding reads (see keyParts).
	keys map[keyProjection]keyMemoEntry

	replays *replayCache // shared with every Fork of this harness

	// One open store per cache directory, created lazily. A store that
	// fails to open is recorded as nil, with its own open error, so a
	// misconfigured directory degrades to uncached operation once
	// instead of erroring every run.
	diskMu   sync.Mutex
	stores   map[string]*diskcache.Store
	openErrs map[string]error
	firstErr error // the first open failure, in open order
}

// NewHarness returns an empty harness: nothing memoized, no trace
// recorded and no disk store open.
func NewHarness() *Harness {
	return (&Harness{replays: newReplayCache()}).Fork()
}

// Fork returns an empty harness that shares h's recorded traces and
// nothing else: no result, classification or render, and no disk
// store. A replayed trace is bit-identical to generating it, so the
// sharing never changes what a run computes; it spares a run of
// fresh results from re-recording its stream (cmd/experiments
// -cache=false forks one harness per artifact).
func (h *Harness) Fork() *Harness {
	return &Harness{
		memo:     make(map[[sha256.Size]byte]outcome),
		classes:  make(map[[sha256.Size]byte]BenchClass),
		renders:  make(map[[sha256.Size]byte][]byte),
		keys:     make(map[keyProjection]keyMemoEntry),
		replays:  h.replays,
		stores:   make(map[string]*diskcache.Store),
		openErrs: make(map[string]error),
	}
}

// defaultHarness serves every call whose Options.Harness is nil.
var defaultHarness = NewHarness()

// outcome is one resolved run: a result or a non-transient error.
// elided marks a result decoded head-only from disk, whose cores hold
// no occupancy series.
type outcome struct {
	res    *mcd.ChipResult
	err    error
	elided bool
}

// serves reports whether o answers a request: a head-only request
// takes any outcome, every other request one with its series.
func (o outcome) serves(headOnly bool) bool { return headOnly || !o.elided }

// flightKey is a resolution's flight: head-only requests and the rest
// resolve a key on separate flights, so a request that reads series
// never waits on a head-only read.
type flightKey struct {
	key      [sha256.Size]byte
	headOnly bool
}

// ResetCache drops every memoized in-process result, classification,
// render, key tail and recorded trace of the default harness and
// zeroes its hit/miss counters. On-disk entries are untouched (delete
// the cache directory to force a cold run).
func ResetCache() { defaultHarness.reset() }

func (h *Harness) reset() {
	h.mu.Lock()
	h.gen++
	h.memo = make(map[[sha256.Size]byte]outcome)
	h.classes = make(map[[sha256.Size]byte]BenchClass)
	h.renders = make(map[[sha256.Size]byte][]byte)
	h.keys = make(map[keyProjection]keyMemoEntry)
	h.runs, h.misses, h.sims, h.spectra, h.renderHits, h.renderMisses = 0, 0, 0, 0, 0, 0
	h.mu.Unlock()
	h.replays.reset()
}

// CacheStats reports how many of the default harness's runs
// (RunProfile, matrix cells, RunChip) were served from memory versus
// not (disk hits count as misses here; see DiskCacheStats).
func CacheStats() (hits, misses uint64) { return defaultHarness.cacheStats() }

func (h *Harness) cacheStats() (hits, misses uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.runs - h.misses, h.misses
}

// SimulationCount reports how many of the default harness's runs were
// simulated: the CacheStats misses that no disk entry served.
func SimulationCount() uint64 {
	h := defaultHarness
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sims
}

// RenderCacheStats reports how many of the default harness's artifact
// renders were served from the render memo versus rendered (see
// cachedRender). Renders that bypass the memo count as neither.
func RenderCacheStats() (hits, misses uint64) { return defaultHarness.renderCacheStats() }

func (h *Harness) renderCacheStats() (hits, misses uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.renderHits, h.renderMisses
}

// DiskStore returns the default harness's store for dir, opening it on
// first use with the given size budget (later calls reuse the first
// store regardless of maxBytes). Every default-harness run with
// Options.CacheDir == dir goes through the returned store, so an
// operator attaching an observer or swapping the FS (chaos injection,
// circuit breaking in internal/serve) sees exactly the traffic the
// runs generate. The error reports why dir is unusable; such a
// directory is cached as nil, later calls return the same error, and
// runs against it silently degrade to uncached simulation.
func DiskStore(dir string, maxBytes int64) (*diskcache.Store, error) {
	return defaultHarness.diskStore(dir, maxBytes)
}

func (h *Harness) diskStore(dir string, maxBytes int64) (*diskcache.Store, error) {
	if dir == "" {
		return nil, invalidSpec(fmt.Errorf("experiment: DiskStore: empty cache directory"))
	}
	h.diskMu.Lock()
	defer h.diskMu.Unlock()
	if s, ok := h.stores[dir]; ok {
		return s, h.openErrs[dir]
	}
	s, err := diskcache.Open(dir, maxBytes)
	if err != nil {
		s = nil
		h.openErrs[dir] = err
		if h.firstErr == nil {
			h.firstErr = err
		}
	}
	h.stores[dir] = s
	return s, err
}

// DiskCacheStats aggregates traffic over every store the default
// harness opened, plus the first open error (nil when every directory
// was usable). A non-nil error means runs fell back to simulation.
func DiskCacheStats() (diskcache.Stats, error) { return defaultHarness.diskCacheStats() }

func (h *Harness) diskCacheStats() (diskcache.Stats, error) {
	h.diskMu.Lock()
	defer h.diskMu.Unlock()
	var total diskcache.Stats
	for _, s := range h.stores {
		if s == nil {
			continue
		}
		st := s.Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Writes += st.Writes
		total.Corrupt += st.Corrupt
		total.Stale += st.Stale
		total.Evictions += st.Evictions
		total.ReadErrors += st.ReadErrors
		total.WriteErrors += st.WriteErrors
		total.Retries += st.Retries
		total.ReadBytes += st.ReadBytes
	}
	return total, h.firstErr
}

// cacheKey hashes the complete simulation input: profs holds one
// workload profile per core. Options.Benchmarks and Options.Schemes
// are deliberately excluded: they select which runs happen, not what
// any individual run computes — a cell simulated for a subset matrix
// must hit the same warm disk-cache entry as the full sweep.
// CacheDir/CacheMaxBytes and the rest of the waived fields
// are excluded for the same reason — they select or store runs, they
// never change what one computes. The scheme enters the key as its
// registry name only. MutateAdaptive is a function and cannot be
// hashed directly; it is canonicalized by its observable effect — the
// controller configuration it produces from each domain's default.
//
// The key is the SHA-256 of one JSON object,
//
//	{"Format","Kind":"chip","Profiles","Scheme","Instructions","Seed","PIDIntervalTicks","Machine","Adaptive","Cores","PowerCapW","Governor","GovernorGain"}
//
// with the defaults spelled out: a single-core run hashes Cores 1,
// PowerCapW 0 and Governor "none", like the 1-core chip it simulates.
// The shape is part of the byte-stability contract
// (TestCacheKeyGolden, TestChipCacheKeyGolden), so a refactor must
// never reorder, rename or retype its fields. The Format field
// versions the key derivation itself and stays at keyFormat; the
// entry encoding is versioned separately in each entry's header
// (diskcache.FormatVersion), so an encoding change retires old entries
// at the same keys without moving them.
//
// Only the profiles and the scheme vary between the runs of one
// Options, so the JSON before them is one constant (keyHead), the JSON
// after them is encoded once per runSpec, and for a plain spec once
// per harness (keyParts). Each key is assembled in a keyScratch and
// hashed whole, so a warm key allocates nothing. A matrix encodes each
// benchmark's profile JSON once for all its schemes (keyScratch,
// keyFor).
func cacheKey(profs []trace.Profile, scheme Scheme, s *runSpec) ([sha256.Size]byte, error) {
	// The options' error, if any, comes before the profiles'.
	if _, err := s.keyParts(); err != nil {
		return [sha256.Size]byte{}, err
	}
	ks := keyScratchPool.Get().(*keyScratch)
	defer keyScratchPool.Put(ks)
	ks.profs = append(ks.profs[:0], profs...)
	if err := ks.encodeProfiles(); err != nil {
		return [sha256.Size]byte{}, err
	}
	return s.keyFor(ks, scheme)
}

// keyScratch is the working memory of key derivation, kept between
// keys: a list of one workload profile per core, its JSON, and the
// bytes of one key. A matrix keys all its cells with one; cacheKey
// borrows one from keyScratchPool.
type keyScratch struct {
	profs    []trace.Profile
	profJSON bytes.Buffer  // profs' JSON and a newline, once encoded
	enc      *json.Encoder // writes to profJSON
	key      []byte
}

var keyScratchPool = sync.Pool{New: func() any { return newKeyScratch() }}

func newKeyScratch() *keyScratch {
	ks := new(keyScratch)
	ks.enc = json.NewEncoder(&ks.profJSON)
	return ks
}

// encodeProfiles encodes the profile list's JSON, the bytes
// json.Marshal writes for it.
func (ks *keyScratch) encodeProfiles() error {
	ks.profJSON.Reset()
	if err := ks.enc.Encode(&ks.profs); err != nil {
		return fmt.Errorf("experiment: cache key: %w", err)
	}
	return nil
}

// keyFor is cacheKey for a scheme's run of the profiles ks last
// encoded.
func (s *runSpec) keyFor(ks *keyScratch, scheme Scheme) ([sha256.Size]byte, error) {
	tail, err := s.keyParts()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	profJSON := ks.profJSON.Bytes()
	profJSON = profJSON[:len(profJSON)-1] // Encode's newline is not JSON's
	b := ks.key[:0]
	if n := len(keyHead) + len(profJSON) + len(`,"Scheme":""`) + len(scheme) + len(tail); cap(b) < n {
		b = make([]byte, 0, n)
	}
	b = append(b, keyHead...)
	b = append(b, profJSON...)
	b = append(b, `,"Scheme":`...)
	if b, err = appendJSONString(b, string(scheme)); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("experiment: cache key: %w", err)
	}
	b = append(b, tail...)
	ks.key = b
	return sha256.Sum256(b), nil
}

// appendJSONString appends the JSON json.Marshal writes for str. A
// string of printable ASCII that HTML escaping leaves alone, as every
// registered scheme name is, is written as it is; any other goes
// through json.Marshal.
func appendJSONString(b []byte, str string) ([]byte, error) {
	for i := 0; i < len(str); i++ {
		if c := str[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			js, err := json.Marshal(str)
			return append(b, js...), err
		}
	}
	b = append(b, '"')
	b = append(b, str...)
	return append(b, '"'), nil
}

// keyParts returns the per-Options tail of every cache key of s's
// runs, encoding it on first use: everything after the scheme. A plain
// spec's tail is memoized on its harness, so a request that rebuilds
// the same options only looks it up (see keyProjection). A panic in
// MutateAdaptive is recovered here into ErrRunPanicked, the error
// every key of s then fails with.
func (s *runSpec) keyParts() (tail []byte, err error) {
	s.keyOnce.Do(func() {
		if s.memoHit {
			return // newRunSpec found the tail in the key memo
		}
		defer func() {
			if r := recover(); r != nil {
				s.keyErr = fmt.Errorf("experiment: cache key: %w: MutateAdaptive: %v", ErrRunPanicked, r)
			}
		}()
		opt := s.opt
		mutated := make([]control.Config, isa.NumExecDomains)
		for d := 0; d < isa.NumExecDomains; d++ {
			cfg := control.DefaultConfig(isa.ExecDomain(d))
			if opt.MutateAdaptive != nil {
				opt.MutateAdaptive(&cfg)
			}
			mutated[d] = cfg
		}
		blob, err := json.Marshal(keyTail{
			Instructions:     opt.Instructions,
			Seed:             opt.Seed,
			PIDIntervalTicks: opt.PIDIntervalTicks,
			Machine:          opt.machine(),
			Adaptive:         mutated,
			Cores:            opt.chipCores(),
			PowerCapW:        opt.PowerCapW,
			Governor:         opt.governorName(),
			GovernorGain:     opt.GovernorGain,
		})
		if err != nil {
			s.keyErr = fmt.Errorf("experiment: cache key: %w", err)
			return
		}
		// blob is {"Instructions":…}: its fields continue the key
		// object after the scheme.
		s.tail = append([]byte{','}, blob[1:]...)
		if s.plainKey {
			s.h.memoizeKey(s.memoKey, keyMemoEntry{s.tail, s.machineErr})
		}
	})
	return s.tail, s.keyErr
}

// keyProjection is every option keyParts encodes from a plain
// spec: one with no Machine, no MutateAdaptive and no enabled faults,
// whose machine is the default configuration at Seed. The floats enter
// as their bits: encoding/json writes −0 and +0 as different bytes,
// but a map key compares them equal.
type keyProjection struct {
	instructions, seed      int64
	pidIntervalTicks        int
	cores                   int
	governor                string
	powerCapW, governorGain uint64
}

// keyMemoEntry is one memoized keyParts result, with the machine
// configuration's Validate verdict beside it: a plain spec's machine
// is the default configuration at Seed, which the projection holds, so
// the verdict is as much a function of the projection as the tail.
// Its slice is shared by every spec that hits it and is never written.
type keyMemoEntry struct {
	tail       []byte
	machineErr error
}

// projectKey returns the key-memo key of o, which has its defaults
// applied, and false when o is not plain: its key tail is encoded
// afresh for every spec. newRunSpec calls it, outside cacheKey's
// reach, so that the cachekey analyzer counts only the encoding's
// reads as hashed.
func projectKey(o Options) (keyProjection, bool) {
	if o.Machine != nil || o.MutateAdaptive != nil || o.Faults.Enabled() {
		return keyProjection{}, false
	}
	return keyProjection{
		instructions:     o.Instructions,
		seed:             o.Seed,
		pidIntervalTicks: o.PIDIntervalTicks,
		cores:            o.Cores,
		governor:         o.Governor,
		powerCapW:        math.Float64bits(o.PowerCapW),
		governorGain:     math.Float64bits(o.GovernorGain),
	}, true
}

// memoizedKey returns the key tail memoized under p.
func (h *Harness) memoizedKey(p keyProjection) (kh keyMemoEntry, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	kh, ok = h.keys[p]
	return kh, ok
}

// memoizeKey records the key tail encoded for p.
func (h *Harness) memoizeKey(p keyProjection, kh keyMemoEntry) {
	h.mu.Lock()
	h.keys[p] = kh
	h.mu.Unlock()
}

// keyTail is the fields every key hashes after the scheme, in key
// order.
type keyTail struct {
	Instructions     int64
	Seed             int64
	PIDIntervalTicks int
	Machine          mcd.Config
	Adaptive         []control.Config
	Cores            int
	PowerCapW        float64
	Governor         string
	GovernorGain     float64
}

// keyFormat is the Format field of every cache key. It versions the
// key derivation alone — the entry encoding is versioned in each entry
// header by diskcache.FormatVersion — so encoding bumps keep every key
// (TestCacheKeyGolden). Change it only when the derivation changes.
const keyFormat = 1

// keyHead is every cache key's JSON up to the profiles.
var keyHead = fmt.Appendf(nil, `{"Format":%d,"Kind":"chip","Profiles":`, keyFormat)

// memoized returns key k's memoized outcome, counted as a hit: the
// one place a memo hit is served, for cachedRun and a matrix's inline
// pass alike. ok is false, and nothing is counted, when k is not
// memoized, or holds a series-elided result and headOnly is false.
func (h *Harness) memoized(k [sha256.Size]byte, headOnly bool) (o outcome, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if o, ok = h.memo[k]; ok && o.serves(headOnly) {
		h.runs++
		return o, true
	}
	return outcome{}, false
}

// cachedRun returns the memoized chip result for (profs, scheme) under
// s's options from s's harness, or resolves it. k, when non-nil, is
// the run's key as cacheKey already derived it. headOnly asks for a
// result whose occupancy series the caller does not read: it may come
// back with every core's QueueSamples nil. The resolution runs
// detached from every caller: each caller waits only until its own
// context ends or opt.Timeout expires, and the simulation is cancelled
// once its last waiter leaves. The run must already have passed
// s.validate.
func cachedRun(ctx context.Context, s *runSpec, profs []trace.Profile, scheme Scheme, k *[sha256.Size]byte, headOnly bool) (*mcd.ChipResult, error) {
	if s.opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.Timeout)
		defer cancel()
	}
	var key [sha256.Size]byte
	if k != nil {
		key = *k
	} else {
		var err error
		if key, err = cacheKey(profs, scheme, s); err != nil {
			return nil, err
		}
	}
	h := s.h
	if o, ok := h.memoized(key, headOnly); ok {
		return o.res, o.err
	}
	h.mu.Lock()
	h.runs++
	gen := h.gen
	h.mu.Unlock()
	o, err := await(ctx, s, flightKey{key, headOnly}, gen, profs, scheme)
	if err != nil {
		return nil, err
	}
	return o.res, o.err
}

// await joins or starts the flight resolving key k and waits for it
// as long as ctx allows. It is split from cachedRun so that a memo hit
// does not pay for the flight closure's captures.
func await(ctx context.Context, s *runSpec, k flightKey, gen uint64, profs []trace.Profile, scheme Scheme) (outcome, error) {
	o, _, err := s.h.flights.Do(ctx, k, func(ctx context.Context) (outcome, error) {
		return resolve(ctx, s, k, gen, profs, scheme), nil
	})
	if err != nil {
		return o, fmt.Errorf("%s/%s: %w", runLabel(profs, s.opt), scheme, wrapRunErr(err))
	}
	return o, nil
}

// resolve produces flight fk's outcome on a flight's context: from the
// memo if a flight completed it since the caller looked, else from
// disk, else by simulating. ctx gates the disk probe; a cancelled
// flight falls straight through to simulate, which honors it. Any disk
// failure falls back to simulation (Get already healed bad entries).
// Misses and non-transient outcomes are recorded only in generation
// gen, so a flight that outlives a reset cannot write into the fresh
// memo. A head-only flight reads the entry's head alone and memoizes
// its result as series-elided; a simulated result is whole, on either
// flight, and an elided result never replaces a whole one.
//
// On disk, every run stores its whole mcd.ChipResult.
func resolve(ctx context.Context, s *runSpec, fk flightKey, gen uint64, profs []trace.Profile, scheme Scheme) (o outcome) {
	h, k := s.h, fk.key
	h.mu.Lock()
	o, ok := h.memo[k]
	ok = ok && o.serves(fk.headOnly)
	if !ok && h.gen == gen {
		h.misses++
	}
	h.mu.Unlock()
	if ok {
		return o
	}
	defer func() {
		h.mu.Lock()
		if h.gen == gen && !transientErr(o.err) {
			if old, ok := h.memo[k]; !ok || !o.elided || old.elided {
				h.memo[k] = o
			}
		}
		h.mu.Unlock()
	}()
	var store *diskcache.Store
	if s.opt.CacheDir != "" {
		store, _ = h.diskStore(s.opt.CacheDir, s.opt.CacheMaxBytes)
	}
	if store != nil && ctx.Err() == nil {
		var res mcd.ChipResult
		get := store.Get
		if fk.headOnly {
			get = store.GetHead
		}
		if get(k, &res) == nil {
			return outcome{res: &res, elided: fk.headOnly}
		}
	}
	h.mu.Lock()
	if h.gen == gen {
		h.sims++
	}
	h.mu.Unlock()
	o.res, o.err = simulate(ctx, s, profs, scheme)
	if o.err == nil && store != nil {
		store.Put(k, o.res) //nolint:errcheck // best-effort: a failed write costs this cell's persistence
	}
	return o
}

// cachedClass returns the Section 5.2 classification of prof under
// spec's options, memoized in spec's harness under the cache key of
// the benchmark's SchemeNone run it derives from, or computes it with
// classify and memoizes it into the generation current at lookup. A
// reset drops it like the result memo. Concurrent first computations
// are not merged; they are deterministic and store the same value.
func cachedClass(ctx context.Context, spec *runSpec, prof trace.Profile) (BenchClass, error) {
	k, err := cacheKey(chipProfiles(prof, spec.opt), SchemeNone, spec)
	if err != nil {
		return BenchClass{}, err
	}
	h := spec.h
	h.mu.Lock()
	bc, hit := h.classes[k]
	gen := h.gen
	h.mu.Unlock()
	if hit {
		return bc, nil
	}
	bc, err = classify(ctx, spec, prof)
	if err != nil {
		return bc, err
	}
	h.mu.Lock()
	if h.gen == gen {
		h.classes[k] = bc
		h.spectra++
	}
	h.mu.Unlock()
	return bc, nil
}

// memoizedRender returns a copy of the artifact bytes memoized under
// render digest k, counted as a hit. A miss counts nothing; the
// cachedRender that follows it counts the miss.
func (h *Harness) memoizedRender(k [sha256.Size]byte) ([]byte, bool) {
	h.mu.Lock()
	body, hit := h.renders[k]
	if hit {
		h.renderHits++
	}
	h.mu.Unlock()
	if !hit {
		return nil, false
	}
	return bytes.Clone(body), true
}

// cachedRender returns the artifact bytes memoized under render digest
// k, or renders them and memoizes a complete render into the
// generation current at lookup. A reset drops the memo, and a render
// that outlives one stores nothing. render reports a partial render —
// one that succeeded with failed runs behind it — and a partial or
// failed render is never stored. The memo keeps its own copy and every
// hit returns a fresh one, so no caller can alias it. Concurrent first
// renders are not merged; they are deterministic and store the same
// bytes.
func (h *Harness) cachedRender(k [sha256.Size]byte, render func() (body []byte, partial bool, err error)) ([]byte, error) {
	h.mu.Lock()
	body, hit := h.renders[k]
	gen := h.gen
	if hit {
		h.renderHits++
	} else {
		h.renderMisses++
	}
	h.mu.Unlock()
	if hit {
		return bytes.Clone(body), nil
	}
	body, partial, err := render()
	if err != nil || partial {
		return body, err
	}
	h.mu.Lock()
	if h.gen == gen {
		h.renders[k] = bytes.Clone(body)
	}
	h.mu.Unlock()
	return body, nil
}

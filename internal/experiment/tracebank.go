package experiment

import (
	"context"
	"sort"
	"sync"

	"mcddvfs/internal/flight"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/trace"
)

// The workload stream a matrix cell simulates depends only on
// (profile, seed, instructions) — never on the DVFS scheme or fault
// spec layered on top — so the benchmark × scheme grid regenerates the
// identical trace once per benchmark instead of once per cell. A
// traceBank owns that sharing for one matrix run: the first cell to
// actually need a benchmark's stream records it (trace.Recorded, one
// flight per benchmark), every other cell replays the same immutable
// buffers through its own zero-alloc cursor, and a per-benchmark
// countdown of outstanding cells releases the recording as soon as its
// last cell finishes, bounding resident traces to the benchmarks in
// flight.
//
// In corpus mode (Options.CorpusDir) the bank resolves streams from
// chunked trace files instead of recording them: one ChunkedFile per
// benchmark, opened once, with every scheme's cell streaming through
// its own cursor over the shared bounded chunk window — peak trace
// memory per benchmark is the window, independent of trace length. A
// member that fails to open, or corrupts mid-stream, heals the same
// way diskcache does: the stream is regenerated from the member's
// embedded profile at the corpus seed (bit-identical to the recorded
// bytes by the StreamSeed contract) and the sweep continues.
//
// A cell's simulation can outlive the cell, and the matrix, when
// another caller still waits on its result-cache key. No ordering in
// RunMatrixContext guards that: a stream asked for after its benchmark
// retired comes from the shared replay cache, and a cursor whose
// member file closes under it heals, so the result is bit-identical
// (TestCorpusAbandonedCellFollower).
//
// Recording is lazy so a fully cache-served matrix (in-process or
// disk) records and opens nothing at all.
type traceBank struct {
	seed   int64 // stream seed (trace.StreamSeed of the harness seed)
	insts  int64
	corpus *trace.Corpus // nil outside corpus mode

	flights flight.Group[string, struct{}] // one materialization per benchmark

	mu      sync.Mutex
	entries map[string]*bankEntry

	// Aggregated corpus streaming stats, final after close().
	stats CorpusStats
}

type bankEntry struct {
	remaining int  // cells (users or not) yet to call release
	ready     bool // materialized: rec or cf is set, unless recording failed
	rec       *trace.Recorded
	cf        *trace.ChunkedFile // corpus mode; nil after a heal
}

// CorpusStats summarizes streamed-trace behavior for one corpus-backed
// matrix run.
type CorpusStats struct {
	// PeakResidentBytes is the largest decoded-chunk residency any one
	// member reached; the bounded-memory contract is
	// PeakResidentBytes <= WindowBytes.
	PeakResidentBytes int64
	// WindowBytes is the per-member residency bound
	// (window × chunk payload), maximized over members.
	WindowBytes int64
	// Loads counts chunk decodes across all members; a perfectly
	// shared sweep decodes each chunk close to once per window pass.
	Loads int64
	// Heals counts benchmarks whose stream had to be regenerated from
	// its profile because the corpus bytes were unreadable or corrupt.
	Heals int
}

// traceSharing gates the bank globally, mirroring SetCaching: sharing
// is semantics-free (a replayed stream is bit-identical to a generated
// one), so the toggle exists for A/B benchmarks and for validating
// that transparency. Corpus-backed matrices always stream through the
// bank — the corpus is the stream source, not an optimization.
var traceSharing = struct {
	mu sync.Mutex
	on bool
}{on: true}

// SetTraceSharing enables or disables shared-trace replay in
// RunMatrix. It is enabled by default; disabling makes every cell
// regenerate its workload stream from the profile (the pre-sharing
// behavior), which must produce byte-identical artifacts.
func SetTraceSharing(on bool) {
	traceSharing.mu.Lock()
	defer traceSharing.mu.Unlock()
	traceSharing.on = on
}

// traceSharingEnabled reports the toggle.
func traceSharingEnabled() bool {
	traceSharing.mu.Lock()
	defer traceSharing.mu.Unlock()
	return traceSharing.on
}

// newTraceBank prepares a bank for one matrix sweep: every benchmark
// starts with cellsPerBench outstanding release calls. corpus is nil
// for the recording (generate-and-share) mode. opt must have defaults
// applied.
func newTraceBank(opt Options, corpus *trace.Corpus, cellsPerBench int) *traceBank {
	b := &traceBank{
		seed:    trace.StreamSeed(opt.Seed),
		insts:   opt.Instructions,
		corpus:  corpus,
		entries: make(map[string]*bankEntry, len(opt.Benchmarks)),
	}
	for _, bench := range opt.Benchmarks {
		b.entries[bench] = &bankEntry{remaining: cellsPerBench}
	}
	return b
}

// source returns a fresh replay cursor over the benchmark's shared
// stream, materializing it first (a recording, or an opened corpus
// member) if this is the earliest cell to need it. Concurrent cells
// share one materialization per benchmark; ctx bounds this cell's wait
// for it, never the materialization, which every cell needs. A
// benchmark the bank does not hold — unregistered, retired under a
// flight that outlived its cell, or unrecordable — streams from the
// shared replay cache instead: the same bytes, or the same error.
func (b *traceBank) source(ctx context.Context, prof trace.Profile) (trace.Source, error) {
	b.mu.Lock()
	e := b.entries[prof.Name]
	ready := e == nil || e.ready
	b.mu.Unlock()
	if !ready {
		if _, _, err := b.flights.Do(ctx, prof.Name, func(context.Context) (struct{}, error) {
			b.materialize(prof, e)
			return struct{}{}, nil
		}); err != nil {
			return nil, wrapRunErr(err)
		}
	}
	var src trace.Source
	b.mu.Lock()
	switch {
	case e == nil:
	case e.cf != nil:
		src = &healingSource{bank: b, prof: prof, cur: e.cf.Replay()}
	case e.rec != nil:
		src = e.rec.Replay()
	}
	b.mu.Unlock()
	if src != nil {
		return src, nil
	}
	return sharedReplays.source(ctx, prof, b.seed, b.insts)
}

// materialize fills e's shared stream unless an earlier flight did: a
// corpus member in corpus mode (healing to a recording if the member
// will not open), otherwise a recording. An entry that retired while
// it materialized is retired again at once.
func (b *traceBank) materialize(prof trace.Profile, e *bankEntry) {
	b.mu.Lock()
	ready := e.ready
	b.mu.Unlock()
	if ready {
		return
	}
	var cf *trace.ChunkedFile
	var rec *trace.Recorded
	var err error
	if b.corpus != nil {
		if cf, err = b.corpus.Open(prof.Name, 0); err != nil {
			// Unreadable member: regenerate the identical stream from
			// the embedded profile, like diskcache discarding a corrupt
			// entry.
			cf = nil
			b.mu.Lock()
			b.stats.Heals++
			b.mu.Unlock()
		}
	}
	if cf == nil {
		// On failure the entry stays empty and source asks the replay
		// cache, which reports the error.
		rec, _ = trace.RecordProfile(prof, b.seed, b.insts)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e.ready, e.rec, e.cf = true, rec, cf
	if b.entries[prof.Name] != e {
		b.retireLocked(e)
	}
}

// release retires one cell's claim on a benchmark's stream; the stream
// is dropped (and a corpus member's file closed, its residency stats
// folded into the bank's) when the last claim retires. Every matrix
// cell releases exactly once, whether or not it consumed the trace (a
// result-cache hit never touches it).
func (b *traceBank) release(bench string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[bench]
	if e == nil {
		return
	}
	e.remaining--
	if e.remaining <= 0 {
		// Last cell done: free the columnar buffers (or close the
		// member file) now instead of at end of sweep, so peak memory
		// tracks benchmarks in flight.
		b.retireLocked(e)
		delete(b.entries, bench)
	}
}

// close retires every entry still open — cells skipped by cancellation
// never release — and returns the final streaming stats.
func (b *traceBank) close() CorpusStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	benches := make([]string, 0, len(b.entries))
	for bench := range b.entries {
		benches = append(benches, bench)
	}
	sort.Strings(benches)
	for _, bench := range benches {
		b.retireLocked(b.entries[bench])
		delete(b.entries, bench)
	}
	return b.stats
}

// retireLocked frees an entry's stream. Callers hold b.mu.
func (b *traceBank) retireLocked(e *bankEntry) {
	e.rec = nil
	if e.cf == nil {
		return
	}
	if p := e.cf.PeakResidentBytes(); p > b.stats.PeakResidentBytes {
		b.stats.PeakResidentBytes = p
	}
	if w := e.cf.WindowBytes(); w > b.stats.WindowBytes {
		b.stats.WindowBytes = w
	}
	b.stats.Loads += e.cf.Loads()
	e.cf.Close()
	e.cf = nil
}

// healingSource streams a corpus member and, if the stream dies
// mid-flight (truncated chunk, CRC mismatch — anything
// ChunkedReplayer.Err reports), regenerates the remainder from the
// member's profile: a generator at the corpus stream seed is
// fast-forwarded past the instructions already emitted and takes over.
// By the StreamSeed determinism contract the regenerated tail is
// bit-identical to what the corpus bytes held, so a heal changes no
// result — it only costs the regeneration time, mirroring diskcache's
// discard-and-recompute semantics.
type healingSource struct {
	bank   *traceBank
	prof   trace.Profile
	cur    trace.Source
	pos    int64
	healed bool
}

// Name implements trace.Source.
func (h *healingSource) Name() string { return h.prof.Name }

// Next implements trace.Source.
func (h *healingSource) Next() (isa.Inst, bool) {
	in, ok := h.cur.Next()
	if ok {
		h.pos++
		return in, true
	}
	if h.healed || h.pos >= h.bank.insts {
		return isa.Inst{}, false // genuine end of stream
	}
	if r, isChunked := h.cur.(*trace.ChunkedReplayer); isChunked && r.Err() == nil {
		return isa.Inst{}, false // clean (if short) end; nothing to heal from
	}
	gen, err := trace.NewGenerator(h.prof, h.bank.seed, h.bank.insts)
	if err != nil {
		return isa.Inst{}, false
	}
	for i := int64(0); i < h.pos; i++ {
		if _, ok := gen.Next(); !ok {
			return isa.Inst{}, false
		}
	}
	h.cur = gen
	h.healed = true
	h.bank.mu.Lock()
	h.bank.stats.Heals++
	h.bank.mu.Unlock()
	return h.Next()
}

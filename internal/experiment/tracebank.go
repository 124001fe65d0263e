package experiment

import (
	"context"
	"sort"
	"sync"

	"mcddvfs/internal/isa"
	"mcddvfs/internal/trace"
)

// The workload stream a matrix cell simulates depends only on
// (profile, seed, instructions) — never on the DVFS scheme or fault
// spec layered on top — so every scheme's cell of one benchmark
// replays the identical stream. A traceBank tracks that sharing for
// one matrix run. Outside corpus mode the stream itself lives in the
// harness's replay memo (tracecache.go): the first cell to simulate
// records it, every other cell replays the same immutable buffers
// through its own zero-alloc cursor. The bank keeps a per-benchmark
// countdown of outstanding cells and drops the benchmark's recording
// from the memo as soon as its last cell finishes, bounding resident
// traces to the benchmarks in flight.
//
// In corpus mode (Options.CorpusDir) the bank instead holds one
// chunked member file per benchmark, opened up front (reading only its
// header, footer and index), with every scheme's cell streaming
// through its own cursor over the shared bounded chunk window — peak
// trace memory per benchmark is the window, independent of trace
// length. The last cell's release closes the file. A member that fails
// to open, or corrupts mid-stream, heals the same way diskcache does:
// the stream comes from the replay memo, or a generator fast-forwarded
// past what was already emitted, at the corpus seed (bit-identical to
// the recorded bytes by the StreamSeed contract), and the sweep
// continues.
//
// A cell's simulation can outlive the cell, and the matrix, when
// another caller still waits on its result-cache key. No ordering in
// RunMatrixContext guards that: a stream asked for after its benchmark
// retired comes from the replay memo, and a cursor whose member file
// closes under it heals, so the result is bit-identical
// (TestCorpusAbandonedCellFollower).
//
// Streams are touched only by cells that simulate, so a fully
// cache-served matrix (in-process or disk) records nothing and decodes
// no chunk.
type traceBank struct {
	seed    int64 // stream seed (trace.StreamSeed of the harness seed)
	insts   int64
	corpus  *trace.Corpus // nil outside corpus mode
	replays *replayCache  // the harness's replay memo

	mu      sync.Mutex
	entries map[string]*bankEntry

	// Aggregated corpus streaming stats, final after close().
	stats CorpusStats
}

type bankEntry struct {
	remaining int                // cells (users or not) yet to call release
	cf        *trace.ChunkedFile // corpus member; nil outside corpus mode or when it would not open
	memo      *replayKey         // the stream's replay-memo key, once a cell streams from the memo
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

// newTraceBank prepares a bank for one matrix sweep: every benchmark
// starts with cellsPerBench outstanding release calls, and in corpus
// mode (corpus non-nil) its member file is opened. A member that will
// not open counts as a heal and streams from the replay memo of s's
// harness.
func newTraceBank(s *runSpec, corpus *trace.Corpus, cellsPerBench int) *traceBank {
	b := &traceBank{
		seed:    trace.StreamSeed(s.opt.Seed),
		insts:   s.opt.Instructions,
		corpus:  corpus,
		replays: s.h.replays,
		entries: make(map[string]*bankEntry, len(s.opt.Benchmarks)),
	}
	for _, bench := range s.opt.Benchmarks {
		e := &bankEntry{remaining: cellsPerBench}
		if corpus != nil {
			cf, err := corpus.Open(bench, 0)
			if err != nil {
				// Unreadable member: regenerate the identical stream from
				// the embedded profile, like diskcache discarding a corrupt
				// entry.
				b.stats.Heals++
			} else {
				e.cf = cf
			}
		}
		b.entries[bench] = e
	}
	return b
}

// profile resolves a benchmark name: the member's embedded profile in
// corpus mode, the bundled registry otherwise.
func (b *traceBank) profile(bench string) (trace.Profile, error) {
	if b.corpus != nil {
		return b.corpus.Profile(bench)
	}
	return trace.ByName(bench)
}

// source returns a fresh cursor over the benchmark's stream: a healing
// cursor over its corpus member when the bank holds one open, else a
// replay from the replay memo (which records the stream on first use,
// or reports why it cannot), or a generator when the stream bypasses
// the memo. ctx bounds this cell's wait for a recording, never the
// recording itself.
func (b *traceBank) source(ctx context.Context, prof trace.Profile) (trace.Source, error) {
	b.mu.Lock()
	var cf *trace.ChunkedFile
	var memo *replayKey
	if e := b.entries[prof.Name]; e != nil {
		if e.cf == nil && e.memo == nil {
			// Fingerprint the profile once per benchmark, not per cell.
			if k, ok := b.replays.key(prof, b.seed, b.insts); ok {
				e.memo = &k
			}
		}
		cf, memo = e.cf, e.memo
	}
	b.mu.Unlock()
	switch {
	case cf != nil:
		return &healingSource{bank: b, prof: prof, cur: cf.Replay()}, nil
	case memo != nil:
		return b.replays.replay(ctx, *memo, prof)
	default:
		return b.replays.source(ctx, prof, b.seed, b.insts)
	}
}

// release retires one cell's claim on a benchmark's stream; the stream
// is freed when the last claim retires. Every matrix cell releases
// exactly once, whether or not it consumed the trace (a result-cache
// hit never touches it).
func (b *traceBank) release(bench string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[bench]
	if e == nil {
		return
	}
	e.remaining--
	if e.remaining <= 0 {
		// Last cell done: free the stream now instead of at end of
		// sweep, so peak memory tracks benchmarks in flight.
		b.retireLocked(bench, e)
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
		b.retireLocked(bench, b.entries[bench])
		delete(b.entries, bench)
	}
	return b.stats
}

// retireLocked frees a benchmark's stream: it drops the benchmark's
// recording from the replay memo if a cell streamed from it (so a warm
// matrix never fingerprints a profile), or closes the member file,
// folding its residency stats into the bank's. Callers hold b.mu.
func (b *traceBank) retireLocked(bench string, e *bankEntry) {
	switch {
	case e.memo != nil:
		b.replays.drop(*e.memo)
	case e.cf != nil:
		if p := e.cf.PeakResidentBytes(); p > b.stats.PeakResidentBytes {
			b.stats.PeakResidentBytes = p
		}
		if w := e.cf.WindowBytes(); w > b.stats.WindowBytes {
			b.stats.WindowBytes = w
		}
		b.stats.Loads += e.cf.Loads()
		e.cf.Close()
	}
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

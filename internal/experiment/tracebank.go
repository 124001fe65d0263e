package experiment

import (
	"context"
	"sync"

	"mcddvfs/internal/trace"
)

// The workload stream a matrix cell simulates depends only on
// (profile, seed, instructions) — never on the DVFS scheme or fault
// spec layered on top — so every scheme's cell of one benchmark
// replays the identical stream. The stream lives in the harness's
// replay memo (tracecache.go): the first cell to simulate records it,
// every other cell replays the same immutable buffers through its own
// zero-alloc cursor. A traceBank keeps, for one matrix run, a
// per-benchmark countdown of outstanding cells and drops the
// benchmark's recording from the memo as soon as its last cell
// finishes.
//
// The drop bounds resident recordings to the benchmarks in flight for
// matrix traffic whose streams are never asked for again: cold matrices
// at fresh seeds or budgets, as mcdserve's cold fig9/fig10 specs are.
// Without it those recordings stay until the memo's LRU byte budget
// evicts them; in the mcdbench serve workload that raised peak RSS
// from about 39 MB to about 48 MB. A single run (RunProfileContext,
// RunChipContext) has no bank, and its recording stays in the memo for
// the next run of the same stream.
//
// A cell's simulation can outlive the cell, and the matrix, when
// another caller still waits on its result-cache key. No ordering in
// RunMatrixContext guards that: a dropped recording stays alive for
// every cursor already replaying it, and a stream asked for after its
// benchmark retired is recorded again, so the result is bit-identical
// (TestAbandonedMatrixCellFollower).
//
// Streams are touched only by cells that simulate, so a fully
// cache-served matrix (in-process or disk) records nothing
// (TestCacheServedMatrixRecordsNoStream).
type traceBank struct {
	seed    int64 // stream seed (trace.StreamSeed of the harness seed)
	insts   int64
	replays *replayCache // the harness's replay memo
	benches []string     // the matrix's benchmarks, in order

	mu      sync.Mutex
	entries map[string]*bankEntry
}

type bankEntry struct {
	remaining int        // cells (users or not) yet to call release
	memo      *replayKey // the stream's replay-memo key, once a cell streams from the memo
}

// newTraceBank prepares a bank for one matrix sweep over s's
// benchmarks: every benchmark starts with cellsPerBench outstanding
// release calls.
func newTraceBank(s *runSpec, cellsPerBench int) *traceBank {
	b := &traceBank{
		seed:    trace.StreamSeed(s.opt.Seed),
		insts:   s.opt.Instructions,
		replays: s.h.replays,
		benches: s.opt.Benchmarks,
		entries: make(map[string]*bankEntry, len(s.opt.Benchmarks)),
	}
	for _, bench := range s.opt.Benchmarks {
		b.entries[bench] = &bankEntry{remaining: cellsPerBench}
	}
	return b
}

// source returns a fresh cursor over the benchmark's stream: a replay
// from the replay memo (which records the stream on first use, or
// reports why it cannot), or a generator when the stream bypasses the
// memo. ctx bounds this cell's wait for a recording, never the
// recording itself.
func (b *traceBank) source(ctx context.Context, prof trace.Profile) (trace.Source, error) {
	b.mu.Lock()
	var memo *replayKey
	if e := b.entries[prof.Name]; e != nil {
		if e.memo == nil {
			// Fingerprint the profile once per benchmark, not per cell.
			if k, ok := b.replays.key(prof, b.seed, b.insts); ok {
				e.memo = &k
			}
		}
		memo = e.memo
	}
	b.mu.Unlock()
	if memo != nil {
		return b.replays.replay(ctx, *memo, prof)
	}
	return b.replays.source(ctx, prof, b.seed, b.insts)
}

// release retires one cell's claim on a benchmark's stream; the
// recording is dropped when the last claim retires. Every matrix cell
// releases exactly once, whether or not it consumed the trace (a
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
		// Last cell done: drop the recording now instead of at end of
		// sweep, so resident recordings track benchmarks in flight.
		b.retireLocked(bench, e)
	}
}

// close retires every entry still open: cells skipped by cancellation
// never release.
func (b *traceBank) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, bench := range b.benches {
		if e := b.entries[bench]; e != nil {
			b.retireLocked(bench, e)
		}
	}
}

// retireLocked drops a benchmark's recording from the replay memo if a
// cell streamed from it (so a warm matrix never fingerprints a
// profile). Callers hold b.mu.
func (b *traceBank) retireLocked(bench string, e *bankEntry) {
	if e.memo != nil {
		b.replays.drop(*e.memo)
	}
	delete(b.entries, bench)
}

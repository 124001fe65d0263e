package experiment

import (
	"sync"

	"mcddvfs/internal/mcd"
)

// RowEvent is one completed benchmark row of a matrix sweep, delivered
// through Options.RowFlush. Events arrive in benchmark order (the
// ordered frontier: a row is delivered once it and every row before it
// have finished their cells), so a streaming renderer writes rows in
// exactly the order the batch renderer would. Results holds a snapshot
// copy of the row — failed cells are absent, and Complete mirrors
// Matrix.Complete for it. A Matrix of the rows delivered so far, with
// the event's Schemes as its columns, renders as the batch render of
// those rows.
type RowEvent struct {
	// Bench is the benchmark whose row completed.
	Bench string
	// Index is the row's position in the sweep's benchmark order.
	Index int
	// Total is the number of benchmark rows in the sweep.
	Total int
	// Schemes is the sweep's controlled-scheme columns, resolved as
	// Matrix.Schemes is. Shared with every event — do not mutate.
	Schemes []Scheme
	// Complete reports whether the baseline and every controlled
	// scheme produced a result for this benchmark.
	Complete bool
	// Results is the row snapshot: scheme → result, missing cells
	// absent. Shared with the matrix — do not mutate.
	Results map[Scheme]*mcd.Result
}

// rowFlusher turns per-cell completions into ordered row deliveries.
// cellDone is called once per finished cell (success or failure);
// cells a cancelled sweep never ran are settled by drain, which
// flushes every still-unemitted row so the interrupted path reuses the
// normal one.
type rowFlusher struct {
	emit     func(RowEvent)
	snapshot func(bench string) (map[Scheme]*mcd.Result, bool)
	benches  []string
	schemes  []Scheme
	index    map[string]int

	mu   sync.Mutex
	left []int // outstanding cells per benchmark
	next int   // first row not yet emitted
}

func newRowFlusher(benches []string, schemes []Scheme, emit func(RowEvent), snapshot func(bench string) (map[Scheme]*mcd.Result, bool)) *rowFlusher {
	f := &rowFlusher{
		emit:     emit,
		snapshot: snapshot,
		benches:  benches,
		schemes:  schemes,
		index:    make(map[string]int, len(benches)),
		left:     make([]int, len(benches)),
	}
	for i, b := range benches {
		f.index[b] = i
		f.left[i] = len(schemes) + 1 // the baseline and each controlled scheme
	}
	return f
}

// cellDone retires one cell of a benchmark and advances the emission
// frontier past every leading benchmark with no cells outstanding.
func (f *rowFlusher) cellDone(bench string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.index[bench]
	if !ok {
		return
	}
	f.left[i]--
	for f.next < len(f.benches) && f.left[f.next] <= 0 {
		f.emitRow(f.next)
		f.next++
	}
}

// drain emits every row the frontier has not reached. Called after the
// sweep settles (all cells finished, failed, or skipped), so there is
// nothing left to wait for.
func (f *rowFlusher) drain() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.next < len(f.benches) {
		f.emitRow(f.next)
		f.next++
	}
}

// emitRow delivers row i. Callers hold f.mu, which also serializes the
// user's callback.
func (f *rowFlusher) emitRow(i int) {
	row, complete := f.snapshot(f.benches[i])
	f.emit(RowEvent{
		Bench:    f.benches[i],
		Index:    i,
		Total:    len(f.benches),
		Schemes:  f.schemes,
		Complete: complete,
		Results:  row,
	})
}

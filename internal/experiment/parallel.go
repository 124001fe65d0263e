package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// taskError is one failed task of a forEachParallel sweep, tagged with
// the task's index so callers can map it back to their work list.
type taskError struct {
	index int
	err   error
}

// forEachParallel runs fn(0..n-1) on a fixed pool of min(GOMAXPROCS, n)
// workers pulling task indices from a channel. Every task runs to
// completion regardless of other tasks' failures — sweeps want partial
// results plus a failure list, not a first-error abort — and a panic
// inside a task is recovered into an ErrRunPanicked task error instead
// of killing the process. Failed tasks come back sorted by index.
//
// Cancelling ctx stops workers from picking up new tasks
// (already-started ones finish); tasks skipped that way are reported
// with ErrCancelled so the caller can tell "failed" from "never ran".
// Every task must be independent; the experiment harness qualifies
// because each simulation is a self-contained, internally deterministic
// machine.
func forEachParallel(ctx context.Context, n int, fn func(i int) error) []taskError {
	if n <= 0 {
		return nil
	}
	ctx = orBackground(ctx)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []taskError
	)
	record := func(i int, err error) {
		mu.Lock()
		errs = append(errs, taskError{index: i, err: err})
		mu.Unlock()
	}
	tasks := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				if err := ctx.Err(); err != nil {
					record(i, fmt.Errorf("%w: %v", ErrCancelled, err))
					continue // drain remaining tasks without running them
				}
				if err := runTask(i, fn); err != nil {
					record(i, err)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		tasks <- i
	}
	close(tasks)
	wg.Wait()

	// Insertion sort by index: failure lists are tiny.
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && errs[j-1].index > errs[j].index; j-- {
			errs[j-1], errs[j] = errs[j], errs[j-1]
		}
	}
	return errs
}

// runTask executes one task, converting a panic into a structured
// error carrying the panic value and its stack.
func runTask(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: task %d: %v\n%s", ErrRunPanicked, i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// orBackground returns ctx, or context.Background() for a nil ctx: the
// exported *Context entry points accept a nil ctx as Options.Context
// does.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// firstError adapts the failure list to the historical single-error
// contract: the lowest-indexed failure wrapped with its index, or nil.
func firstError(errs []taskError) error {
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("task %d: %w", errs[0].index, errs[0].err)
}

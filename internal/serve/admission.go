package serve

import (
	"context"
	"fmt"
)

// gate is the admission controller: a worker-slot semaphore fronted by
// a bounded queue. A unit of work (one shared render; every request
// waiting on it shares its admission) first claims a queue token — an
// immediate, non-blocking decision — and then waits for a worker slot.
// A full queue is the load-shedding signal: acquire fails fast with
// ErrOverloaded and the handler answers 429, so latency under overload
// stays bounded instead of every request piling onto an unbounded
// wait.
type gate struct {
	slots chan struct{} // running work, capacity = workers
	queue chan struct{} // running + waiting work, capacity = workers + depth
}

// newGate sizes the controller: workers concurrent runs, depth more
// waiting behind them before shedding starts.
func newGate(workers, depth int) *gate {
	return &gate{
		slots: make(chan struct{}, workers),
		queue: make(chan struct{}, workers+depth),
	}
}

// acquire admits one unit of work or fails: immediately with
// ErrOverloaded when the queue is full, or with ctx's error if the
// caller gives up while waiting for a slot.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.queue <- struct{}{}:
	default:
		return fmt.Errorf("%w: %d running, %d queued", ErrOverloaded, len(g.slots), len(g.queue)-len(g.slots))
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-g.queue
		return ctx.Err()
	}
}

// release returns the slot and queue token claimed by acquire.
func (g *gate) release() {
	<-g.slots
	<-g.queue
}

// load reports how many units are running and how many are waiting.
func (g *gate) load() (running, waiting int) {
	running = len(g.slots)
	q := len(g.queue)
	if q > running {
		waiting = q - running
	}
	return running, waiting
}

// saturated reports whether the next cold request would be shed.
func (g *gate) saturated() bool {
	return len(g.queue) == cap(g.queue)
}

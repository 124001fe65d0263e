// Package flight is the repo's one keyed single-flight primitive.
// Concurrent callers for a key share one execution of fn, which belongs
// to the callers still waiting on it: it runs on its own goroutine
// under a context detached from every caller's cancellation (keeping
// the first caller's values); each caller waits only as long as its own
// context allows; the work is cancelled when its last waiter leaves,
// and a caller arriving after that starts afresh rather than inheriting
// the cancellation. The key is forgotten when fn returns — a Group
// memoizes nothing, so callers keeping a memo re-check it inside fn —
// and a panic in fn reaches every waiter as ErrPanicked.
package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrPanicked wraps the value recovered from a panicking fn.
var ErrPanicked = errors.New("flight: work panicked")

// Group deduplicates concurrent work by key. The zero value is ready
// to use; a Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one execution of fn and the callers waiting on it.
type call[V any] struct {
	done    chan struct{} // closed once val and err are set
	cancel  context.CancelFunc
	waiters int
	val     V
	err     error
}

// Do returns fn's outcome for key, joining a live execution for key or
// starting one; leader reports whether this caller started it.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, leader bool, err error) {
	// Built before taking g.mu: WithoutCancel panics on a nil ctx, and
	// nothing that can panic may run while g.mu is held.
	detached := context.WithoutCancel(ctx)
	g.mu.Lock()
	c, ok := g.calls[key]
	if leader = !ok || c.waiters == 0; leader {
		if g.calls == nil {
			g.calls = make(map[K]*call[V])
		}
		work, cancel := context.WithCancel(detached)
		c = &call[V]{done: make(chan struct{}), cancel: cancel}
		g.calls[key] = c
		go g.run(work, key, c, fn)
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, leader, c.err
	case <-ctx.Done():
	}
	g.mu.Lock()
	if c.waiters--; c.waiters == 0 {
		c.cancel()
	}
	g.mu.Unlock()
	return v, leader, ctx.Err()
}

// run executes fn for c, then forgets the key and publishes the
// outcome.
func (g *Group[K, V]) run(ctx context.Context, key K, c *call[V], fn func(context.Context) (V, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("%w: %v", ErrPanicked, r)
		}
		g.mu.Lock()
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		c.cancel()
		close(c.done)
	}()
	c.val, c.err = fn(ctx)
}

// Len reports how many keys have work in progress.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

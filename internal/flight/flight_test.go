package flight

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(time.Millisecond):
		}
	}
}

// waitersOf reports how many callers wait on key's live execution.
func (g *Group[K, V]) waitersOf(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.calls[key]; c != nil {
		return c.waiters
	}
	return 0
}

// TestFlightGroupShares: one leader runs, late arrivals attach, and
// everyone shares the bytes.
func TestFlightGroupShares(t *testing.T) {
	var g Group[string, []byte]
	release := make(chan struct{})
	started := make(chan struct{})
	run := func(ctx context.Context) ([]byte, error) {
		close(started)
		<-release
		return []byte("shared"), nil
	}

	type out struct {
		body   []byte
		leader bool
		err    error
	}
	results := make(chan out, 6)
	do := func() {
		body, leader, err := g.Do(context.Background(), "k", run)
		results <- out{body, leader, err}
	}
	go do()
	<-started
	for i := 0; i < 5; i++ {
		go do()
	}
	waitFor(t, "6 waiters", func() bool { return g.waitersOf("k") == 6 })
	close(release)
	leaders := 0
	for i := 0; i < 6; i++ {
		r := <-results
		if r.err != nil || string(r.body) != "shared" {
			t.Fatalf("result = %q, %v", r.body, r.err)
		}
		if r.leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
	if g.Len() != 0 {
		t.Fatalf("flight not unregistered after completion")
	}
}

// TestFlightGroupAbandonment: when every waiter gives up, the work
// context is cancelled so the work stops burning CPU.
func TestFlightGroupAbandonment(t *testing.T) {
	var g Group[string, []byte]
	stopped := make(chan struct{})
	run := func(ctx context.Context) ([]byte, error) {
		<-ctx.Done()
		close(stopped)
		return nil, ctx.Err()
	}
	reqCtx, cancelReq := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(reqCtx, "k", run)
		done <- err
	}()
	waitFor(t, "the flight to register", func() bool { return g.Len() == 1 })
	cancelReq()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter got %v, want context.Canceled", err)
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("work context not cancelled after the last waiter left")
	}
	waitFor(t, "the key to be forgotten", func() bool { return g.Len() == 0 })
}

// TestLeaderLeavesFollowerStays: the starter's cancellation is its
// own; a follower with a live context still gets the result, and the
// work is not cancelled while it waits.
func TestLeaderLeavesFollowerStays(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	run := func(ctx context.Context) (int, error) {
		select {
		case <-release:
			return 42, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, leader, err := g.Do(leaderCtx, "k", run)
		if !leader {
			err = errors.New("first caller did not lead")
		}
		leaderErr <- err
	}()
	waitFor(t, "the leader", func() bool { return g.waitersOf("k") == 1 })
	follower := make(chan int, 1)
	go func() {
		v, _, err := g.Do(context.Background(), "k", run)
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		follower <- v
	}()
	waitFor(t, "the follower", func() bool { return g.waitersOf("k") == 2 })
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want its own context.Canceled", err)
	}
	close(release)
	if v := <-follower; v != 42 {
		t.Fatalf("follower got %d, want 42", v)
	}
}

// TestAbandonedWorkIsNotJoined: a caller arriving after every waiter
// left starts a fresh execution instead of inheriting the cancelled
// one.
func TestAbandonedWorkIsNotJoined(t *testing.T) {
	var g Group[string, int]
	var starts atomic.Int32
	unblock := make(chan struct{})
	run := func(ctx context.Context) (int, error) {
		n := starts.Add(1)
		if n == 1 {
			<-ctx.Done()
			<-unblock // keep the abandoned execution registered
			return 0, ctx.Err()
		}
		return int(n), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.Do(ctx, "k", run); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v", err)
	}
	waitFor(t, "the first execution", func() bool { return starts.Load() == 1 })
	v, leader, err := g.Do(context.Background(), "k", run)
	close(unblock)
	if err != nil || v != 2 || !leader {
		t.Fatalf("late caller = %d, leader %v, %v; want a fresh execution", v, leader, err)
	}
}

// TestPanicReachesEveryWaiter: a panicking fn is converted to
// ErrPanicked for all waiters, and the key is released.
func TestPanicReachesEveryWaiter(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	run := func(context.Context) (int, error) {
		<-release
		panic("boom")
	}
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, _, err := g.Do(context.Background(), "k", run)
			errs <- err
		}()
	}
	waitFor(t, "3 waiters", func() bool { return g.waitersOf("k") == 3 })
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, ErrPanicked) {
			t.Fatalf("waiter got %v, want ErrPanicked", err)
		}
	}
	if g.Len() != 0 {
		t.Fatal("panicked flight still registered")
	}
}

// TestNilContextLeavesGroupUsable: Do panics on a nil ctx before it
// takes the group's lock, so later calls still run.
func TestNilContextLeavesGroupUsable(t *testing.T) {
	var g Group[string, int]
	one := func(context.Context) (int, error) { return 1, nil }
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Do with a nil ctx did not panic")
			}
		}()
		var nilCtx context.Context
		g.Do(nilCtx, "a", one) //nolint:errcheck // panics
	}()
	done := make(chan struct{})
	go func() {
		g.Do(context.Background(), "b", one) //nolint:errcheck // only completion matters
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("group wedged after a nil-context Do")
	}
}

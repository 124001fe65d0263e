package experiment

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// The result cache's single-flight contract, caller by caller: a run
// shared by several callers belongs to the callers still waiting on it.
// One caller's cancellation, deadline or departure is its own; it never
// reaches another waiter, and a run nobody waits for is cancelled and
// never memoized.

// sharedOpt is a spec long enough that a second caller reliably joins
// the first one's run while it is still simulating, on a harness of
// the test's own.
func sharedOpt() Options {
	return Options{Instructions: 150_000, Seed: 11, Harness: NewHarness()}.withDefaults()
}

// runOutcome is what one RunProfileContext call returned.
type runOutcome struct {
	res *mcd.Result
	err error
}

// runAsync starts RunProfileContext for gzip/adaptive and delivers its
// outcome on the returned channel.
func runAsync(ctx context.Context, opt Options) <-chan runOutcome {
	out := make(chan runOutcome, 1)
	go func() {
		prof, err := trace.ByName("gzip")
		if err != nil {
			out <- runOutcome{nil, err}
			return
		}
		res, err := RunProfileContext(ctx, prof, SchemeAdaptive, opt)
		out <- runOutcome{res, err}
	}()
	return out
}

// waitUntil polls cond until it holds or fails the test after 30 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// inFlight reports how many of h's result-cache keys are being
// resolved.
func inFlight(h *Harness) int { return h.flights.Len() }

// entered reports how many of h's cached calls have passed the memo
// check.
func entered(h *Harness) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.runs
}

// joinDelay covers the few statements between a caller passing the
// memo check and attaching to the flight.
const joinDelay = 5 * time.Millisecond

// uncontended simulates opt's gzip/adaptive run alone, on an empty
// harness.
func uncontended(t *testing.T, opt Options) *mcd.Result {
	t.Helper()
	opt.Harness = NewHarness()
	r := <-runAsync(context.Background(), opt)
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.res
}

// TestLeaderCancelDoesNotReachFollower: the leader's context is
// cancelled while a follower with a live context waits on the same
// key. The leader gets its own ErrCancelled; the follower gets the
// result of the one simulation.
func TestLeaderCancelDoesNotReachFollower(t *testing.T) {
	t.Parallel()
	opt := sharedOpt()

	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := runAsync(leaderCtx, opt)
	waitUntil(t, "the leader's run", func() bool { return inFlight(opt.Harness) == 1 })
	follower := runAsync(context.Background(), opt)
	waitUntil(t, "the follower", func() bool { return entered(opt.Harness) == 2 })
	time.Sleep(joinDelay)
	cancel()

	if r := <-leader; !errors.Is(r.err, ErrCancelled) {
		t.Fatalf("leader got %v, want ErrCancelled", r.err)
	}
	f := <-follower
	if f.err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", f.err)
	}
	if _, misses := opt.Harness.cacheStats(); misses != 1 {
		t.Errorf("%d simulations, want 1 (the follower shares the leader's)", misses)
	}
	if want := uncontended(t, opt); !reflect.DeepEqual(want.Metrics, f.res.Metrics) {
		t.Error("follower's result differs from an uncontended run")
	}
}

// TestLeaderTimeoutDoesNotReachFollower: Options.Timeout bounds the
// caller that set it, not the simulation it shares. A follower with no
// timeout gets the result after the leader's 30 ms deadline fires.
func TestLeaderTimeoutDoesNotReachFollower(t *testing.T) {
	t.Parallel()
	opt := sharedOpt()
	hurried := opt
	hurried.Timeout = 30 * time.Millisecond

	leader := runAsync(context.Background(), hurried)
	waitUntil(t, "the leader's run", func() bool { return inFlight(opt.Harness) == 1 })
	follower := runAsync(context.Background(), opt)

	if r := <-leader; !errors.Is(r.err, ErrRunTimeout) {
		t.Fatalf("leader got %v, want ErrRunTimeout", r.err)
	}
	f := <-follower
	if f.err != nil {
		t.Fatalf("follower inherited the leader's deadline: %v", f.err)
	}
	if want := uncontended(t, opt); !reflect.DeepEqual(want.Metrics, f.res.Metrics) {
		t.Error("follower's result differs from an uncontended run")
	}
}

// TestCancelledFollowerReturnsPromptly: a follower whose own context
// is cancelled returns its own ErrCancelled at once instead of waiting
// for the leader's simulation to finish.
func TestCancelledFollowerReturnsPromptly(t *testing.T) {
	t.Parallel()
	opt := sharedOpt()

	leader := runAsync(context.Background(), opt)
	waitUntil(t, "the leader's run", func() bool { return inFlight(opt.Harness) == 1 })
	followerCtx, cancel := context.WithCancel(context.Background())
	follower := runAsync(followerCtx, opt)
	waitUntil(t, "the follower", func() bool { return entered(opt.Harness) == 2 })
	time.Sleep(joinDelay)
	cancel()

	select {
	case f := <-follower:
		if !errors.Is(f.err, ErrCancelled) || f.res != nil {
			t.Fatalf("cancelled follower got %v, %v; want its own ErrCancelled", f.res, f.err)
		}
	case r := <-leader:
		t.Fatalf("the leader finished (%v) before the cancelled follower returned", r.err)
	}
	if r := <-leader; r.err != nil {
		t.Fatalf("leader: %v", r.err)
	}
}

// TestAbandonedRunIsCancelledAndNotMemoized: when every waiter leaves
// a key, its simulation is cancelled, nothing is memoized, and a later
// call simulates afresh.
func TestAbandonedRunIsCancelledAndNotMemoized(t *testing.T) {
	t.Parallel()
	opt := sharedOpt()

	ctx, cancel := context.WithCancel(context.Background())
	only := runAsync(ctx, opt)
	waitUntil(t, "the run", func() bool { return inFlight(opt.Harness) == 1 })
	cancel()
	if r := <-only; !errors.Is(r.err, ErrCancelled) {
		t.Fatalf("abandoning caller got %v, want ErrCancelled", r.err)
	}
	waitUntil(t, "the abandoned run to stop", func() bool { return inFlight(opt.Harness) == 0 })
	// A completed simulation would have been memoized: an empty memo
	// means the run ended on its cancelled context.
	opt.Harness.mu.Lock()
	memoized := len(opt.Harness.memo)
	opt.Harness.mu.Unlock()
	if memoized != 0 {
		t.Fatalf("abandoned run memoized %d outcomes, want 0", memoized)
	}
	if r := <-runAsync(context.Background(), opt); r.err != nil {
		t.Fatal(r.err)
	}
	if hits, misses := opt.Harness.cacheStats(); hits != 0 || misses != 2 {
		t.Errorf("cache stats %d hits / %d misses, want 0 / 2 (the later call re-simulates)", hits, misses)
	}
}

// TestResetCacheFencesRunningFlight: a run that started before a
// harness reset completes for its waiter but cannot write into the
// fresh memo.
func TestResetCacheFencesRunningFlight(t *testing.T) {
	t.Parallel()
	opt := sharedOpt()

	run := runAsync(context.Background(), opt)
	waitUntil(t, "the run", func() bool { return inFlight(opt.Harness) == 1 })
	opt.Harness.reset()
	if r := <-run; r.err != nil {
		t.Fatal(r.err)
	}
	opt.Harness.mu.Lock()
	memoized := len(opt.Harness.memo)
	opt.Harness.mu.Unlock()
	if memoized != 0 {
		t.Fatalf("a pre-reset run wrote %d outcomes into the fresh memo", memoized)
	}
}

// TestReplayCacheRecordsConcurrentMissOnce: concurrent misses on one
// stream share a single recording.
func TestReplayCacheRecordsConcurrentMissOnce(t *testing.T) {
	t.Parallel()
	c := newReplayCache()
	prof, err := trace.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := c.source(context.Background(), prof, 5, 200_000); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if c.recordings != 1 {
		t.Fatalf("%d concurrent misses recorded the stream %d times, want once", callers, c.recordings)
	}
}

// resident reports how many recordings h's replay memo holds.
func resident(h *Harness) int {
	h.replays.mu.Lock()
	defer h.replays.mu.Unlock()
	return len(h.replays.entries)
}

// TestAbandonedMatrixCellFollower: a matrix's cells are abandoned by
// their leader — whose matrix then returns and its trace bank drops the
// benchmark's recording from the replay memo — while a second matrix
// still waits on the same keys. The orphaned runs keep replaying the
// dropped recording through their own cursors, so the follower's
// results, from the leader's two simulations, are bit-identical to an
// uncontended run.
func TestAbandonedMatrixCellFollower(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs both matrix cells in flight at once")
	}
	t.Parallel()
	opt := Options{Instructions: 200_000, Seed: 13, Benchmarks: []string{"gzip"}, Schemes: []Scheme{SchemeAdaptive}, Harness: NewHarness()}

	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type matrixOutcome struct {
		m   *Matrix
		err error
	}
	runMatrix := func(ctx context.Context) <-chan matrixOutcome {
		out := make(chan matrixOutcome, 1)
		go func() {
			m, err := RunMatrixContext(ctx, opt)
			out <- matrixOutcome{m, err}
		}()
		return out
	}
	leader := runMatrix(leaderCtx)
	waitUntil(t, "both leader cells", func() bool { return inFlight(opt.Harness) == 2 })
	waitUntil(t, "the leader's recording", func() bool { return resident(opt.Harness) == 1 })
	follower := runMatrix(context.Background())
	waitUntil(t, "both follower cells", func() bool { return entered(opt.Harness) == 4 })
	time.Sleep(joinDelay)
	cancel()
	if r := <-leader; !errors.Is(r.err, ErrCancelled) {
		t.Fatalf("leader matrix got %v, want ErrCancelled", r.err)
	}
	if n := resident(opt.Harness); n != 0 {
		t.Fatalf("the leader's matrix returned with %d recordings resident, want its recording dropped", n)
	}
	if n := inFlight(opt.Harness); n == 0 {
		t.Fatal("the shared runs finished before the leader's matrix dropped its recording; nothing was exercised")
	}
	f := <-follower
	if f.err != nil || len(f.m.Failures) != 0 {
		t.Fatalf("follower matrix: %v, failures %v", f.err, f.m.Failures)
	}
	opt.Harness.mu.Lock()
	sims := opt.Harness.sims
	opt.Harness.mu.Unlock()
	if sims != 2 {
		t.Errorf("%d simulations, want 2 (the follower joins both of the leader's runs)", sims)
	}

	opt.Harness = NewHarness()
	want, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Results, f.m.Results) {
		t.Error("the follower's results differ from an uncontended matrix's")
	}
}

// TestCancelledMatrixDropsInFlightRecording: a matrix cancelled while
// its cells wait on a recording drops the recording before it exists,
// and the recording, abandoned by every waiter, stops unfinished: once
// the matrix's flights are gone no recording has finished and none is
// resident.
func TestCancelledMatrixDropsInFlightRecording(t *testing.T) {
	t.Parallel()
	opt := Options{Instructions: 1_000_000, Seed: 17, Benchmarks: []string{"gzip"}, Schemes: []Scheme{SchemeAdaptive}, Harness: NewHarness()}
	replays := opt.Harness.replays
	recording := func() bool {
		replays.mu.Lock()
		defer replays.mu.Unlock()
		return len(replays.recording) > 0
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunMatrixContext(ctx, opt)
		done <- err
	}()
	waitUntil(t, "both cells", func() bool { return entered(opt.Harness) == 2 })
	waitUntil(t, "the recording", recording)
	// Cancel under the memo's lock, so the recording is known to be in
	// progress when the matrix is cancelled.
	replays.mu.Lock()
	busy := len(replays.recording) > 0
	cancel()
	replays.mu.Unlock()
	if !busy {
		t.Fatal("the recording finished before the matrix was cancelled; nothing was exercised")
	}
	if err := <-done; !errors.Is(err, ErrCancelled) {
		t.Fatalf("matrix got %v, want ErrCancelled", err)
	}
	waitUntil(t, "the cells' simulations and recordings to stop", func() bool {
		return inFlight(opt.Harness) == 0 && replays.flights.Len() == 0 && !recording()
	})
	replays.mu.Lock()
	recordings := replays.recordings
	replays.mu.Unlock()
	if recordings != 0 {
		t.Errorf("%d recordings finished after every waiter left, want 0", recordings)
	}
	if n := resident(opt.Harness); n != 0 {
		t.Errorf("%d recordings resident after the cancelled matrix's recording stopped, want 0", n)
	}
}

package diskcache

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// openFlaky builds a store over a FaultFS with a fast retry policy so
// tests exercise real backoff sleeps without slowing the suite.
func openFlaky(t *testing.T) (*Store, *FaultFS, string) {
	t.Helper()
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := OpenFS(dir, 0, ffs)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetry(3, time.Millisecond)
	return s, ffs, dir
}

// TestPutRetriesTransientWriteFaults is the satellite contract: a
// transient temp-file/rename failure no longer silently drops the
// entry — Put retries with backoff until the fault clears and the
// entry is eventually persisted, complete and readable.
func TestPutRetriesTransientWriteFaults(t *testing.T) {
	for _, op := range []string{FaultCreateTemp, FaultWrite, FaultRename} {
		t.Run(op, func(t *testing.T) {
			s, ffs, dir := openFlaky(t)
			ffs.FailNext(2, op) // first two attempts fail, third succeeds
			want := samplePayload(512)
			if err := s.Put(key(1), want); err != nil {
				t.Fatalf("Put did not survive 2 transient %s faults: %v", op, err)
			}
			var got payload
			if err := s.Get(key(1), &got); err != nil {
				t.Fatalf("Get after faulted Put: %v", err)
			}
			if n := got.Cores[0].QueueSamples[sampleQueue].Len(); n != want.Cores[0].QueueSamples[sampleQueue].Len() {
				t.Fatalf("entry truncated: %d samples, want %d", n, want.Cores[0].QueueSamples[sampleQueue].Len())
			}
			st := s.Stats()
			if st.Retries < 2 || st.WriteErrors != 0 {
				t.Errorf("stats = %+v, want >=2 retries and 0 write errors", st)
			}
			if _, err := Verify(dir, true); err != nil {
				t.Errorf("store left partial files behind: %v", err)
			}
		})
	}
}

// TestPutGivesUpAfterRetryBudget asserts a persistent fault surfaces
// as an error (counted, observed) instead of spinning forever, and
// still leaves no partial files behind.
func TestPutGivesUpAfterRetryBudget(t *testing.T) {
	s, ffs, dir := openFlaky(t)
	var (
		mu       sync.Mutex
		observed []error
	)
	s.SetObserver(func(op Op, err error) {
		if op == OpPut {
			mu.Lock()
			observed = append(observed, err)
			mu.Unlock()
		}
	})
	ffs.Fail(FaultRename)
	err := s.Put(key(2), samplePayload(64))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Put under a persistent fault = %v, want ErrInjected", err)
	}
	st := s.Stats()
	if st.WriteErrors != 1 || st.Retries != 2 {
		t.Errorf("stats = %+v, want 1 write error after 2 retries", st)
	}
	mu.Lock()
	seen := append([]error(nil), observed...)
	mu.Unlock()
	if len(seen) != 1 || seen[0] == nil {
		t.Errorf("observer saw %v, want exactly one failure", seen)
	}
	ffs.Heal()
	if _, err := Verify(dir, true); err != nil {
		t.Errorf("failed Put left partial files: %v", err)
	}
	// The slot still works once the fault clears.
	if err := s.Put(key(2), samplePayload(64)); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
}

// TestGetIOFaultIsObservedDistinctlyFromCorruption asserts the
// observer separates disk-availability failures (breaker-relevant)
// from self-healing corruption (not breaker-relevant).
func TestGetIOFaultIsObservedDistinctlyFromCorruption(t *testing.T) {
	s, ffs, _ := openFlaky(t)
	if err := s.Put(key(3), samplePayload(16)); err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		fails int
		oks   int
	)
	s.SetObserver(func(op Op, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			fails++
		} else {
			oks++
		}
	})

	ffs.Fail(FaultOpen)
	var got payload
	if err := s.Get(key(3), &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get under open fault = %v, want ErrCorrupt wrapper", err)
	}
	ffs.Heal()
	if err := s.Get(key(3), &got); err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
	if err := s.Get(key(9), &got); !errors.Is(err, ErrMiss) {
		t.Fatalf("Get of absent key = %v, want ErrMiss", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if fails != 1 {
		t.Errorf("observer saw %d failures, want exactly 1 (the injected open fault)", fails)
	}
	if oks < 2 {
		t.Errorf("observer saw %d successes, want >=2 (the healthy hit and the miss)", oks)
	}
	if st := s.Stats(); st.ReadErrors != 1 {
		t.Errorf("stats = %+v, want 1 read error", st)
	}
}

// TestSetFSMidFlight slides a FaultFS under a live store (the chaos
// endpoint's move) and asserts traffic degrades and recovers.
func TestSetFSMidFlight(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetry(2, time.Millisecond)
	if err := s.Put(key(4), samplePayload(8)); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(nil)
	ffs.Fail(FaultCreateTemp, FaultRename, FaultOpen)
	s.SetFS(ffs)
	if err := s.Put(key(5), samplePayload(8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put after SetFS(faulty) = %v, want ErrInjected", err)
	}
	s.SetFS(nil) // back to the real filesystem
	if err := s.Put(key(5), samplePayload(8)); err != nil {
		t.Fatalf("Put after restoring FS: %v", err)
	}
	var got payload
	if err := s.Get(key(4), &got); err != nil {
		t.Fatalf("entry written before the fault window is gone: %v", err)
	}
}

// TestVerifyFlagsDamage asserts the auditor actually fails on a
// truncated entry and on leftover temp files under strict mode.
func TestVerifyFlagsDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(6), samplePayload(32)); err != nil {
		t.Fatal(err)
	}
	if n, err := Verify(dir, true); err != nil || n != 1 {
		t.Fatalf("Verify(clean) = %d, %v; want 1, nil", n, err)
	}
	path := entryFile(t, dir)
	if err := os.Truncate(path, headerSize-2); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir, true); err == nil {
		t.Error("Verify accepted a truncated entry")
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-leftover"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0) // re-open heals nothing by itself
	_ = s2
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir, true); err == nil {
		t.Error("strict Verify accepted a leftover temp file")
	}
	if _, err := Verify(dir, false); err == nil {
		t.Error("lenient Verify should still flag the truncated entry")
	}
}

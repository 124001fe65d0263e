package experiment

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcddvfs/internal/diskcache"
)

// TestMidMatrixCancellationLeavesDiskCacheConsistent is the crash/
// cancel-consistency contract for the disk tier: killing a matrix
// mid-flight may lose cells, but must never leave the cache directory
// damaged — no partial entries, no orphaned temp files — and a warm
// re-run over the survivors must produce artifacts byte-identical to a
// fully cold run.
func TestMidMatrixCancellationLeavesDiskCacheConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run consistency test is not -short")
	}
	t.Parallel()

	render := func(h *Harness, dir string, ctx context.Context) (fig9, fig10 string, err error) {
		opt := Options{
			Instructions: 20000,
			Seed:         1,
			Benchmarks:   []string{"epic_decode", "gzip"},
			CacheDir:     dir,
			Harness:      h,
		}
		m, err := RunMatrixContext(ctx, opt)
		if err != nil {
			return "", "", err
		}
		r9, r10 := m.Figure9(), m.Figure10()
		return r9.String(), r10.String(), nil
	}

	// Reference: a fully cold run in its own directory.
	refDir := t.TempDir()
	wantFig9, wantFig10, err := render(NewHarness(), refDir, context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel as soon as the store has persisted at
	// least one cell but (likely) not all of them.
	dir := t.TempDir()
	h := NewHarness()
	store, err := h.diskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if store.Stats().Writes >= 1 {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	_, _, err = render(h, dir, ctx)
	if err != nil && !errors.Is(err, ErrCancelled) {
		t.Fatalf("interrupted run: %v, want nil or ErrCancelled", err)
	}
	cancel()

	// The directory must verify clean once the cancelled matrix's
	// detached flights have drained: complete entries only, no temp
	// litter from the cancelled writers.
	awaitFlights(t, h)
	if _, err := diskcache.Verify(dir, true); err != nil {
		t.Fatalf("cancelled run damaged the cache: %v", err)
	}

	// Warm re-run over the partial cache: same bytes as the cold
	// reference.
	h = NewHarness()
	gotFig9, gotFig10, err := render(h, dir, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gotFig9 != wantFig9 {
		t.Error("fig9 after cancelled-then-warm run differs from a cold run")
	}
	if gotFig10 != wantFig10 {
		t.Error("fig10 after cancelled-then-warm run differs from a cold run")
	}
	awaitFlights(t, h)
	if _, err := diskcache.Verify(dir, true); err != nil {
		t.Fatalf("warm re-run damaged the cache: %v", err)
	}
}

// awaitFlights waits until no result-cache flight of h is in progress.
// A cancelled matrix returns while the flights its cells started may
// still be finishing a disk write; the directory is only settled once
// they are gone.
func awaitFlights(t *testing.T, h *Harness) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for h.flights.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d result-cache flights still running after 30s", h.flights.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

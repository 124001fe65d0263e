package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcddvfs/internal/control"
	"mcddvfs/internal/faults"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/trace"
)

// marshal renders a result for byte-level comparison.
func marshal(t *testing.T, v interface{}) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestZeroFaultConfigBitIdentical is the acceptance contract for the
// injection layer: a fault config with no fault knobs set (seed
// included) must leave the simulation on its pre-fault code paths and
// produce byte-identical results.
func TestZeroFaultConfigBitIdentical(t *testing.T) {
	t.Parallel()
	opt := Options{Instructions: 20000, Seed: 3}

	clean, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, uncached(opt))
	if err != nil {
		t.Fatal(err)
	}
	opt.Faults = faults.Config{Seed: 99} // a seed alone enables nothing
	zero, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, uncached(opt))
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, clean)) != string(marshal(t, zero)) {
		t.Fatal("zero-value fault config changed the simulation output")
	}

	// Sanity check the other direction: enabled faults must actually
	// perturb the run, or the sweep measures nothing.
	opt.Faults = faults.Intensity(1, 3)
	faulty, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, uncached(opt))
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, clean)) == string(marshal(t, faulty)) {
		t.Fatal("full-intensity faults left the simulation output unchanged")
	}
}

// TestFaultSeedDeterministicReplay asserts a faulty run is as
// reproducible as a clean one: the same fault seed replays
// byte-identically, and a different seed draws a different fault
// sequence.
func TestFaultSeedDeterministicReplay(t *testing.T) {
	t.Parallel()
	opt := Options{Instructions: 20000, Seed: 3, Faults: faults.Intensity(0.75, 17)}

	a, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, uncached(opt))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, uncached(opt))
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, a)) != string(marshal(t, b)) {
		t.Fatal("same fault seed did not replay byte-identically")
	}

	opt.Faults = faults.Intensity(0.75, 18)
	c, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, uncached(opt))
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, a)) == string(marshal(t, c)) {
		t.Fatal("different fault seeds produced identical fault sequences")
	}
}

// TestMatrixPartialFailure asserts one bad cell does not poison a
// sweep: the unknown benchmark's cells land in Failures as
// ErrInvalidSpec while every other cell completes.
func TestMatrixPartialFailure(t *testing.T) {
	t.Parallel()
	opt := uncached(Options{Instructions: 20000, Seed: 3, Benchmarks: []string{"gzip", "no_such_bench"}})

	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatalf("partial failure escalated to a sweep error: %v", err)
	}
	perBench := 1 + len(ControlledSchemes())
	if len(m.Failures) != perBench {
		t.Fatalf("got %d failures, want %d (one per scheme of the bad benchmark)", len(m.Failures), perBench)
	}
	for _, f := range m.Failures {
		if f.Bench != "no_such_bench" {
			t.Errorf("healthy benchmark %q reported a failure: %v", f.Bench, f.Err)
		}
		if !errors.Is(f.Err, ErrInvalidSpec) {
			t.Errorf("unknown benchmark not classified ErrInvalidSpec: %v", f.Err)
		}
	}
	if !m.Complete("gzip") {
		t.Error("healthy benchmark row is incomplete")
	}
	if m.Complete("no_such_bench") {
		t.Error("failed benchmark row claims to be complete")
	}
	if c := m.Compare("no_such_bench", SchemeAdaptive); c != (m.Compare("no_such_bench", SchemePID)) {
		_ = c // both are zero Comparisons; just exercising nil-safety
	}
}

// TestMatrixPanicIsolation asserts a panic inside one cell's simulation
// is recovered into ErrRunPanicked for that cell only.
func TestMatrixPanicIsolation(t *testing.T) {
	t.Parallel()
	// The mutator lets the cache key's one canonicalizing pass (a call
	// per exec domain) through and panics once the adaptive scheme
	// attaches it, so the panic is the adaptive cell's alone.
	var calls atomic.Int64
	opt := uncached(Options{
		Instructions: 20000,
		Seed:         3,
		Benchmarks:   []string{"gzip"},
		MutateAdaptive: func(c *control.Config) {
			if calls.Add(1) > int64(isa.NumExecDomains) {
				panic("rigged controller")
			}
		},
	})

	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatalf("one panicking scheme escalated to a sweep error: %v", err)
	}
	if len(m.Failures) != 1 {
		t.Fatalf("got %d failures, want exactly the adaptive cell: %+v", len(m.Failures), m.Failures)
	}
	f := m.Failures[0]
	if f.Bench != "gzip" || f.Scheme != SchemeAdaptive {
		t.Errorf("failure at %s/%s, want gzip/adaptive", f.Bench, f.Scheme)
	}
	if !errors.Is(f.Err, ErrRunPanicked) {
		t.Errorf("panic not classified ErrRunPanicked: %v", f.Err)
	}
	for _, s := range []Scheme{SchemeNone, SchemePID, SchemeAttackDecay} {
		if m.Results["gzip"][s] == nil {
			t.Errorf("%s cell missing although only adaptive panicked", s)
		}
	}
}

// TestFigureNoteNamesFailedCell asserts the omitted-rows note of the
// matrix figures names the benchmark and the cell that failed, and
// that the figures over the rows RowFlush delivered carry the same
// note as the batch render.
func TestFigureNoteNamesFailedCell(t *testing.T) {
	t.Parallel()
	// As in TestMatrixPanicIsolation, only the adaptive cell panics.
	var calls atomic.Int64
	opt := uncached(Options{
		Instructions: 20000,
		Seed:         3,
		Benchmarks:   []string{"gzip"},
		MutateAdaptive: func(c *control.Config) {
			if calls.Add(1) > int64(isa.NumExecDomains) {
				panic("rigged controller")
			}
		},
	})
	var events []RowEvent
	opt.RowFlush = func(ev RowEvent) { events = append(events, ev) }
	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	const note = "1 benchmark(s) omitted, cells failed or cancelled: gzip (adaptive)"
	for id, rep := range map[string]Report{"fig9": m.Figure9(), "fig10": m.Figure10(), "fig11": m.Figure11([]string{"gzip"})} {
		if len(rep.Notes) == 0 || rep.Notes[0] != note {
			t.Errorf("%s notes %q, want first %q", id, rep.Notes, note)
		}
	}
	streamed := rowsMatrix(events)
	for _, fig := range []func(*Matrix) Report{(*Matrix).Figure9, (*Matrix).Figure10} {
		if got, want := fig(streamed), fig(m); got.String() != want.String() {
			t.Errorf("figure over the delivered rows differs from batch:\n--- rows\n%s--- batch\n%s", got.String(), want.String())
		}
	}
}

// TestRunTimeout asserts a deadline shorter than any simulation
// surfaces as ErrRunTimeout.
func TestRunTimeout(t *testing.T) {
	t.Parallel()
	opt := uncached(Options{Instructions: 20000, Seed: 3, Timeout: time.Nanosecond})
	_, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt)
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("got %v, want ErrRunTimeout", err)
	}
}

// TestRunCancelled asserts a cancelled context surfaces as
// ErrCancelled.
func TestRunCancelled(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := uncached(Options{Instructions: 20000, Seed: 3})
	_, err := RunOneContext(ctx, "gzip", SchemeAdaptive, opt)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
}

// TestTransientErrorsNotMemoized asserts a timeout is never replayed
// from the result cache: the same key re-simulates once the deadline
// pressure is gone.
func TestTransientErrorsNotMemoized(t *testing.T) {
	t.Parallel()
	opt := uncached(Options{Instructions: 20000, Seed: 3, Timeout: time.Nanosecond})
	if _, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt); !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("setup: got %v, want ErrRunTimeout", err)
	}
	opt.Timeout = 0 // same cache key: Timeout is not part of the simulation input
	res, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, opt)
	if err != nil {
		t.Fatalf("timeout failure was replayed from the cache: %v", err)
	}
	if res == nil {
		t.Fatal("no result after retry")
	}
}

// TestFaultSweepReport asserts the robustness artifact is generated,
// shaped as expected, and deterministic under a fixed seed even when
// every simulation is redone from scratch.
func TestFaultSweepReport(t *testing.T) {
	t.Parallel()
	intensities := []float64{0, 1}
	opt := uncached(Options{Instructions: 20000, Seed: 3, Benchmarks: []string{"gzip"}, FaultIntensities: intensities})

	rep, err := FaultSweepContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "robustness" {
		t.Errorf("report ID %q, want robustness", rep.ID)
	}
	// Header, one row per intensity, and the degradation summary.
	if want := 1 + len(intensities) + 1; len(rep.Lines) != want {
		t.Errorf("report has %d lines, want %d:\n%s", len(rep.Lines), want, rep.String())
	}

	// A fresh harness forces a full re-simulation of every cell.
	again, err := FaultSweepContext(context.Background(), uncached(opt))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Errorf("fault sweep is not deterministic for a fixed seed:\n%s\nvs\n%s", rep.String(), again.String())
	}

	opt.FaultIntensities = []float64{2}
	if _, err := FaultSweepContext(context.Background(), opt); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("out-of-range intensity accepted: %v", err)
	}
}

// panicSource yields a short stream and then panics mid-run, inside
// the simulator's hot loop rather than during construction.
type panicSource struct {
	trace.Source
	left int
}

func (s *panicSource) Next() (isa.Inst, bool) {
	if s.left--; s.left < 0 {
		panic("rigged trace")
	}
	return s.Source.Next()
}

// TestHotLoopPanicIsRunPanicked asserts a panic raised while the
// machine is running — not while it is built — still surfaces as
// ErrRunPanicked, now that every run goes through the chip loop and
// its worker pool.
func TestHotLoopPanicIsRunPanicked(t *testing.T) {
	t.Parallel()
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	opt := uncached(Options{Instructions: 20000, Seed: 3})
	_, err = runCell(context.Background(), newRunSpec(opt), prof, SchemeAdaptive, nil, func(context.Context, trace.Profile) (trace.Source, error) {
		gen, err := trace.NewGenerator(prof, trace.StreamSeed(opt.Seed), opt.Instructions)
		return &panicSource{Source: gen, left: 5000}, err
	})
	if !errors.Is(err, ErrRunPanicked) {
		t.Fatalf("hot-loop panic not classified ErrRunPanicked: %v", err)
	}
	if !strings.Contains(err.Error(), "rigged trace") {
		t.Errorf("panic value lost: %v", err)
	}
}

package experiment

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// spectraComputed reports how many classifications h's current
// generation computed rather than served from the memo.
func spectraComputed(h *Harness) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.spectra
}

// classifyOpt is the full suite at a budget small enough for tests,
// on a harness of the test's own.
func classifyOpt() Options {
	return Options{Instructions: 10000, Seed: 5, Harness: NewHarness()}.withDefaults()
}

// mustClassify runs ClassifyBenchmarks and fails the test on error.
func mustClassify(t *testing.T, opt Options) []BenchClass {
	t.Helper()
	classes, err := ClassifyBenchmarks(opt)
	if err != nil {
		t.Fatal(err)
	}
	return classes
}

// TestClassificationMemo pins the classification memo's contract: it
// returns exactly what a classification on an empty harness computes,
// computes each benchmark once per cache generation, shares entries
// between a suite and its subsets, and never lets a caller alias it.
func TestClassificationMemo(t *testing.T) {
	t.Parallel()
	fresh := mustClassify(t, classifyOpt())
	n := uint64(len(fresh))

	cases := []struct {
		name string
		run  func(t *testing.T, full Options)
	}{
		{"equals an uncached run", func(t *testing.T, full Options) {
			for call := 1; call <= 2; call++ {
				if got := mustClassify(t, full); !reflect.DeepEqual(got, fresh) {
					t.Fatalf("call %d: memoized %+v, fresh %+v", call, got, fresh)
				}
			}
		}},
		{"second call computes no spectra", func(t *testing.T, full Options) {
			mustClassify(t, full)
			if got := spectraComputed(full.Harness); got != n {
				t.Fatalf("first call computed %d classifications, want %d", got, n)
			}
			mustClassify(t, full)
			if got := spectraComputed(full.Harness); got != n {
				t.Fatalf("second call computed %d more classifications, want 0", got-n)
			}
		}},
		{"subset reuses full-suite entries", func(t *testing.T, full Options) {
			mustClassify(t, full)
			sub := full
			sub.Benchmarks = []string{full.Benchmarks[3], full.Benchmarks[1]}
			got := mustClassify(t, sub)
			if spent := spectraComputed(full.Harness) - n; spent != 0 {
				t.Fatalf("subset computed %d classifications, want 0", spent)
			}
			want := []BenchClass{fresh[3], fresh[1]}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("subset = %+v, want %+v", got, want)
			}
		}},
		{"ResetCache recomputes", func(t *testing.T, full Options) {
			mustClassify(t, full)
			full.Harness.reset() // what ResetCache does to the default harness
			got := mustClassify(t, full)
			if spent := spectraComputed(full.Harness); spent != n {
				t.Fatalf("after ResetCache computed %d classifications, want %d", spent, n)
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Fatalf("recomputed %+v, want %+v", got, fresh)
			}
		}},
		{"concurrent first calls agree", func(t *testing.T, full Options) {
			type result struct {
				classes []BenchClass
				err     error
			}
			results := make(chan result, 4)
			for i := 0; i < cap(results); i++ {
				go func() {
					classes, err := ClassifyBenchmarks(full)
					results <- result{classes, err}
				}()
			}
			for i := 0; i < cap(results); i++ {
				r := <-results
				if r.err != nil {
					t.Fatal(r.err)
				}
				if !reflect.DeepEqual(r.classes, fresh) {
					t.Fatalf("concurrent call = %+v, want %+v", r.classes, fresh)
				}
			}
		}},
		{"returned slice is the caller's own", func(t *testing.T, full Options) {
			got := mustClassify(t, full)
			for i := range got {
				got[i] = BenchClass{Name: "mutated", Fast: !got[i].Fast}
			}
			if again := mustClassify(t, full); !reflect.DeepEqual(again, fresh) {
				t.Fatalf("after mutating a returned slice: %+v, want %+v", again, fresh)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.run(t, classifyOpt())
		})
	}
}

// TestTable3LeavesCallerSliceAlone: Table3 sorts its own copy of the
// fast group, never the caller's slice.
func TestTable3LeavesCallerSliceAlone(t *testing.T) {
	t.Parallel()
	fast := []string{"swim", "gzip"}
	if _, err := Table3(context.Background(), Options{Instructions: 5000, Seed: 5}, fast); err != nil {
		t.Fatal(err)
	}
	if want := []string{"swim", "gzip"}; !reflect.DeepEqual(fast, want) {
		t.Fatalf("Table3 reordered its argument to %v, want %v", fast, want)
	}
}

// TestNilContextDoesNotWedgeCache: an exported *Context entry point
// treats a nil ctx as context.Background(), and the result cache keeps
// serving afterwards. A nil ctx once panicked inside the result cache's
// flight group while it held its lock, wedging every later cached run
// in the process.
func TestNilContextDoesNotWedgeCache(t *testing.T) {
	t.Parallel()
	h := NewHarness()
	done := make(chan error, 1)
	go func() {
		var nilCtx context.Context
		if _, err := RunMatrixContext(nilCtx, Options{Instructions: 5000, Benchmarks: []string{"gzip", "swim"}, Harness: h}); err != nil {
			done <- err
			return
		}
		_, err := RunOneContext(context.Background(), "gzip", SchemeAdaptive, Options{Instructions: 5000, Seed: 2, Harness: h})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cached runs hang after a nil-context RunMatrixContext")
	}
}

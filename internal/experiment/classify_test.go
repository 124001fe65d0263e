package experiment

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// spectraComputed reports how many classifications this cache
// generation computed rather than served from the memo.
func spectraComputed() uint64 {
	resultCache.mu.Lock()
	defer resultCache.mu.Unlock()
	return resultCache.spectra
}

// classifyOpt is the full suite at a budget small enough for tests.
func classifyOpt() Options {
	return Options{Instructions: 10000, Seed: 5}.withDefaults()
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
// returns exactly what an uncached classification computes, computes
// each benchmark once per cache generation, shares entries between a
// suite and its subsets, and never lets a caller alias it.
func TestClassificationMemo(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	full := classifyOpt()
	n := uint64(len(full.Benchmarks))

	SetCaching(false)
	uncached := mustClassify(t, full)
	SetCaching(true)

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"equals an uncached run", func(t *testing.T) {
			for call := 1; call <= 2; call++ {
				if got := mustClassify(t, full); !reflect.DeepEqual(got, uncached) {
					t.Fatalf("call %d: memoized %+v, uncached %+v", call, got, uncached)
				}
			}
		}},
		{"second call computes no spectra", func(t *testing.T) {
			mustClassify(t, full)
			if got := spectraComputed(); got != n {
				t.Fatalf("first call computed %d classifications, want %d", got, n)
			}
			mustClassify(t, full)
			if got := spectraComputed(); got != n {
				t.Fatalf("second call computed %d more classifications, want 0", got-n)
			}
		}},
		{"subset reuses full-suite entries", func(t *testing.T) {
			mustClassify(t, full)
			sub := full
			sub.Benchmarks = []string{full.Benchmarks[3], full.Benchmarks[1]}
			got := mustClassify(t, sub)
			if spent := spectraComputed() - n; spent != 0 {
				t.Fatalf("subset computed %d classifications, want 0", spent)
			}
			want := []BenchClass{uncached[3], uncached[1]}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("subset = %+v, want %+v", got, want)
			}
		}},
		{"ResetCache recomputes", func(t *testing.T) {
			mustClassify(t, full)
			ResetCache()
			got := mustClassify(t, full)
			if spent := spectraComputed(); spent != n {
				t.Fatalf("after ResetCache computed %d classifications, want %d", spent, n)
			}
			if !reflect.DeepEqual(got, uncached) {
				t.Fatalf("recomputed %+v, want %+v", got, uncached)
			}
		}},
		{"concurrent first calls agree", func(t *testing.T) {
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
				if !reflect.DeepEqual(r.classes, uncached) {
					t.Fatalf("concurrent call = %+v, want %+v", r.classes, uncached)
				}
			}
		}},
		{"returned slice is the caller's own", func(t *testing.T) {
			got := mustClassify(t, full)
			for i := range got {
				got[i] = BenchClass{Name: "mutated", Fast: !got[i].Fast}
			}
			if again := mustClassify(t, full); !reflect.DeepEqual(again, uncached) {
				t.Fatalf("after mutating a returned slice: %+v, want %+v", again, uncached)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ResetCache()
			tc.run(t)
		})
	}
}

// TestTable3LeavesCallerSliceAlone: Table3 sorts its own copy of the
// fast group, never the caller's slice.
func TestTable3LeavesCallerSliceAlone(t *testing.T) {
	fast := []string{"swim", "gzip"}
	if _, err := Table3(Options{Instructions: 5000, Seed: 5}, fast); err != nil {
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
	defer ResetCache()
	ResetCache()
	done := make(chan error, 1)
	go func() {
		var nilCtx context.Context
		if _, err := RunMatrixContext(nilCtx, Options{Instructions: 5000, Benchmarks: []string{"gzip", "swim"}}); err != nil {
			done <- err
			return
		}
		_, err := RunOne("gzip", SchemeAdaptive, Options{Instructions: 5000, Seed: 2})
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

package mcd

import (
	"context"
	"testing"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/trace"
)

// TestSteadyStateZeroAllocs is the allocation regression test for the
// hot path: after warm-up (occupancy samplers full, uop free list
// populated, the generator's static-branch table sized, the engine's
// event queue grown), retiring instructions must not allocate at all.
// The uop free list, the domain-indexed meters, the open-addressed
// store counter, and the ring-buffer queues exist to keep this at
// zero. It drives the event loop the simulator runs — sleep, wake and
// scheduled-event pushes included — and the sleepless oracle.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, sleepless := range []bool{false, true} {
		name := "default"
		if sleepless {
			name = "sleepless"
		}
		t.Run(name, func(t *testing.T) { steadyStateZeroAllocs(t, sleepless) })
	}
}

func steadyStateZeroAllocs(t *testing.T, sleepless bool) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	// Small cap so the samplers stop retaining during warm-up.
	cfg.SampleLimit = 1 << 10

	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 500000
	gen, err := trace.NewGenerator(prof, 12, budget)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.sleepless = sleepless
	// No controllers attached: domains stay pinned at f_max, so the
	// frequency traces never grow. (Controller-driven runs append one
	// FreqPoint per retarget by design; that is reported state, not
	// hot-path churn.)
	ctx := context.Background()
	if err := p.beginEventRun(ctx, gen); err != nil {
		t.Fatal(err)
	}

	// retire drives the event loop, 1 µs of simulated time per call,
	// until n more instructions commit.
	retire := func(n int64) {
		target := p.retired + n
		for p.retired < target {
			done, err := p.advanceEvent(ctx, p.eventNow+clock.Microsecond)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				t.Fatal("trace exhausted before the retire target; raise the budget")
			}
		}
	}

	// Warm-up: fill the samplers past SampleLimit, cycle every uop slot
	// through the free list, and let the trace generator visit its full
	// static code footprint so its branch table stops growing.
	retire(100000)

	const perRun = 2000
	avg := testing.AllocsPerRun(20, func() { retire(perRun) })
	if avg != 0 {
		t.Fatalf("steady state allocates: %.2f allocs per %d retired instructions (want 0)", avg, perRun)
	}
}

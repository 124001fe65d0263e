package trace

import (
	"sync"
	"testing"
)

// TestRecordedReplaysGeneratorExactly asserts the core shared-trace
// contract: recording a generator and replaying it yields the exact
// instruction sequence the generator would have produced live.
func TestRecordedReplaysGeneratorExactly(t *testing.T) {
	for _, name := range []string{"gzip", "swim", "epic_decode"} {
		prof, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		const seed, total = 12, 20000
		rec, err := RecordProfile(prof, seed, total)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Len() != total {
			t.Fatalf("%s: recorded %d instructions, want %d", name, rec.Len(), total)
		}
		if got := rec.Replay().Name(); got != prof.Name {
			t.Fatalf("recorded name %q, want %q", got, prof.Name)
		}

		g, err := NewGenerator(prof, seed, total)
		if err != nil {
			t.Fatal(err)
		}
		rep := rec.Replay()
		for i := int64(0); ; i++ {
			want, wok := g.Next()
			got, gok := rep.Next()
			if wok != gok {
				t.Fatalf("%s: stream length mismatch at %d (gen %v, replay %v)", name, i, wok, gok)
			}
			if !wok {
				break
			}
			if want != got {
				t.Fatalf("%s: instruction %d differs:\n generator %+v\n replayer  %+v", name, i, want, got)
			}
		}
	}
}

// TestReplayerCursorsAreIndependent asserts concurrent cursors over
// one shared recording each see the full stream from the start.
func TestReplayerCursorsAreIndependent(t *testing.T) {
	prof, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordProfile(prof, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := rec.Replay().Next()
	if !ok {
		t.Fatal("empty recording")
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := rec.Replay()
			in, ok := rep.Next()
			if !ok || in != first {
				t.Errorf("cursor did not start at the first instruction")
				return
			}
			n := int64(1)
			for {
				if _, ok := rep.Next(); !ok {
					break
				}
				n++
			}
			if n != rec.Len() {
				t.Errorf("cursor saw %d instructions, want %d", n, rec.Len())
			}
		}()
	}
	wg.Wait()
}

// TestReplayerNextDoesNotAllocate locks in the zero-copy claim: the
// replay hot path must not allocate per instruction.
func TestReplayerNextDoesNotAllocate(t *testing.T) {
	prof, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordProfile(prof, 1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.Replay()
	avg := testing.AllocsPerRun(5000, func() {
		if _, ok := rep.Next(); !ok {
			t.Fatal("replayer ran dry mid-measurement")
		}
	})
	if avg != 0 {
		t.Errorf("Replayer.Next allocates %.2f objects per call, want 0", avg)
	}
}

// TestRecordStopsAtSourceEnd asserts Record drains exactly what the
// source offers, independent of the capacity hint.
func TestRecordStopsAtSourceEnd(t *testing.T) {
	prof, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(prof, 7, 333)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record(g, 10_000) // oversized hint
	if rec.Len() != 333 {
		t.Fatalf("recorded %d instructions, want 333", rec.Len())
	}
	if rec.Bytes() <= 0 {
		t.Error("Bytes() reported a non-positive size")
	}
}

package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// TestRecordedDensity holds the codec's density: every bundled profile
// records at no more than 6 resident bytes per instruction at 5k, 100k
// and 500k instructions (the retired column layout took 25).
func TestRecordedDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("records every bundled profile at 500k instructions")
	}
	for _, name := range Names() {
		prof, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int64{5_000, 100_000, 500_000} {
			rec, err := RecordProfile(prof, StreamSeed(1), n)
			if err != nil {
				t.Fatal(err)
			}
			if d := float64(rec.Bytes()) / float64(rec.Len()); d > 6 {
				t.Errorf("%s at %d instructions: %.2f B/inst, want at most 6", name, n, d)
			}
		}
	}
}

// TestCodecBytesGolden pins the instruction codec's bytes: the SHA-256
// of four bundled streams of 20k instructions as a Recorded holds them
// and as a trace file. The encoder may be rewritten for speed; its
// bytes may move only with the file version (FileVersion), which these
// digests then follow.
func TestCodecBytesGolden(t *testing.T) {
	golden := map[string][2]string{
		"gzip":        {"c32847acf644ab93d1d28ae6d2366c0b339972bf7ed122131f0c130cd22f3af4", "a295a486d96dd4599f6ee53fb09d33402f2ed97305a0de360f3d55b9f736d9a2"},
		"epic_decode": {"bc72c2a4fa765ad3553a7c5d9ffe639488bde492c72d83539bc8810333602042", "3302d5225dd0901f50358f4e1acefd6ffe9bf1307d5d17c5ce24ac5805f99bf8"},
		"swim":        {"55d04d919573574f9e81aace48e871cb0485873ba73e3303796d36325595cb9a", "6f7a07427e7f6e17b02861032b4690eba63e7bcdd47d48de20190fe9b3b6191b"},
		"mcf":         {"495c0eee9e960f5c4a66aeeedd6403d9637a312e7bf8b3d5377f92e05349f9bb", "9b076d92a508f3f08cae431eb61f8d68ec0fcc989e51fe010e2cba0a2a6937ec"},
	}
	const insts = 20_000
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for name, want := range golden {
		prof, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := RecordProfile(prof, StreamSeed(1), insts)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := NewGenerator(prof, StreamSeed(1), insts)
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if _, err := Write(&file, gen, insts); err != nil {
			t.Fatal(err)
		}
		if got := digest(rec.code); got != want[0] {
			t.Errorf("%s: recorded bytes digest %s, want %s", name, got, want[0])
		}
		if got := digest(file.Bytes()); got != want[1] {
			t.Errorf("%s: file digest %s, want %s", name, got, want[1])
		}
	}
}

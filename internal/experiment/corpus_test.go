package experiment

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mcddvfs/internal/faults"
	"mcddvfs/internal/trace"
)

// buildCorpus emits a corpus directory for the named benchmarks at
// (seed, insts) with small chunks, so even short tests span many
// chunks per member.
func buildCorpus(t *testing.T, seed, insts int64, chunkInsts int, benches ...string) string {
	t.Helper()
	dir := t.TempDir()
	man := trace.CorpusManifest{FormatVersion: 2, Seed: seed, Instructions: insts}
	for _, bench := range benches {
		prof, err := trace.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		m, err := trace.EmitCorpusMember(dir, prof, seed, insts, chunkInsts)
		if err != nil {
			t.Fatal(err)
		}
		man.Members = append(man.Members, m)
	}
	if err := trace.WriteCorpusManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sameResults asserts two matrices agree cell for cell on metrics and
// headline rates.
func sameResults(t *testing.T, label string, want, got *Matrix) {
	t.Helper()
	for _, b := range want.Benchmarks {
		for s, w := range want.Results[b] {
			g := got.Results[b][s]
			if g == nil {
				t.Fatalf("%s: %s/%s missing", label, b, s)
			}
			if !reflect.DeepEqual(w.Metrics, g.Metrics) {
				t.Errorf("%s: %s/%s metrics differ:\n  generated: %+v\n  corpus:    %+v", label, b, s, w.Metrics, g.Metrics)
			}
			if w.IPC != g.IPC || w.L1DMissRate != g.L1DMissRate {
				t.Errorf("%s: %s/%s rates differ", label, b, s)
			}
		}
	}
}

// TestCorpusMatrixBitIdentical is the tentpole differential: a matrix
// resolved from a corpus (streamed chunked replay) must be
// bit-identical — results and rendered txt/json/svg artifacts — to
// one whose streams are generated in memory, across a scheme subset
// and with the fault layer on.
func TestCorpusMatrixBitIdentical(t *testing.T) {
	t.Parallel()

	const seed, insts = 21, 30000
	benches := []string{"adpcm_encode", "gzip", "swim"}
	dir := buildCorpus(t, seed, insts, 1<<10, benches...)

	variants := map[string]func(*Options){
		"plain":         func(o *Options) {},
		"scheme-subset": func(o *Options) { o.Schemes = []Scheme{SchemeAdaptive, SchemePID} },
		"faults":        func(o *Options) { o.Faults = faults.Intensity(0.5, seed) },
	}
	for name, tweak := range variants {
		gen := Options{Instructions: insts, Seed: seed, Benchmarks: benches}
		tweak(&gen)
		corp := gen
		corp.CorpusDir = dir

		mGen, err := RunMatrixContext(context.Background(), uncached(gen))
		if err != nil {
			t.Fatalf("%s: generated: %v", name, err)
		}
		mCorp, err := RunMatrixContext(context.Background(), uncached(corp))
		if err != nil {
			t.Fatalf("%s: corpus: %v", name, err)
		}
		if len(mGen.Failures) != 0 || len(mCorp.Failures) != 0 {
			t.Fatalf("%s: failures: gen=%v corpus=%v", name, mGen.Failures, mCorp.Failures)
		}
		sameResults(t, name, mGen, mCorp)
		if mCorp.Corpus == nil || mCorp.Corpus.Heals != 0 {
			t.Errorf("%s: corpus stats %+v", name, mCorp.Corpus)
		}
	}

	// Rendered artifacts through the full pipeline: every format of
	// the matrix-backed figures must be byte-identical.
	for _, id := range []string{"fig9", "fig10"} {
		for _, format := range []ArtifactFormat{FormatText, FormatJSON, FormatSVG} {
			gen := Options{Instructions: insts, Seed: seed, Benchmarks: benches}
			wantB, _, err := RenderArtifactContext(context.Background(), id, format, uncached(gen))
			if err != nil {
				t.Fatal(err)
			}
			gen.CorpusDir = dir
			gotB, _, err := RenderArtifactContext(context.Background(), id, format, uncached(gen))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantB, gotB) {
				t.Errorf("%s.%s differs between generated and corpus runs", id, format)
			}
		}
	}
}

// TestCorpusMatrixBoundedMemory is the scale acceptance check: a
// matrix whose corpus members are far larger than the chunk window
// completes with peak decoded-trace residency bounded by the window.
func TestCorpusMatrixBoundedMemory(t *testing.T) {
	t.Parallel()

	const seed, insts = 33, 60000
	const chunk = 1 << 11 // 2048 insts -> ~30 chunks per member
	dir := buildCorpus(t, seed, insts, chunk, "gzip", "swim")

	opt := uncached(Options{Instructions: insts, Seed: seed, CorpusDir: dir})
	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Failures) != 0 {
		t.Fatalf("failures: %v", m.Failures)
	}
	if m.Corpus == nil {
		t.Fatal("corpus-backed matrix reported no corpus stats")
	}
	memberRaw := insts * 25 // full decoded member size
	if m.Corpus.WindowBytes >= int64(memberRaw) {
		t.Fatalf("vacuous: window %d B not smaller than member %d B", m.Corpus.WindowBytes, memberRaw)
	}
	if m.Corpus.PeakResidentBytes > m.Corpus.WindowBytes {
		t.Fatalf("peak resident %d B exceeds window bound %d B", m.Corpus.PeakResidentBytes, m.Corpus.WindowBytes)
	}
	if m.Corpus.Loads == 0 {
		t.Fatal("no chunk loads recorded; did the corpus stream at all?")
	}
	// Benchmarks defaulted from the manifest, in sorted order.
	if len(m.Benchmarks) != 2 || m.Benchmarks[0] != "gzip" || m.Benchmarks[1] != "swim" {
		t.Fatalf("benchmarks not resolved from manifest: %v", m.Benchmarks)
	}
}

// TestCorpusMatrixHeals mirrors diskcache's self-healing: corrupt
// corpus bytes never fail the sweep or change a result — the stream is
// regenerated from the embedded profile, and the heal is counted.
func TestCorpusMatrixHeals(t *testing.T) {
	t.Parallel()

	const seed, insts = 44, 20000
	benches := []string{"gzip", "swim"}
	opt := Options{Instructions: insts, Seed: seed, Benchmarks: benches}
	clean, err := RunMatrixContext(context.Background(), uncached(opt))
	if err != nil {
		t.Fatal(err)
	}

	corrupt := map[string]func(t *testing.T, path string){
		// Unreadable at open: the whole file is garbage.
		"open-time": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// Open succeeds, a later chunk's CRC fails mid-replay.
		"mid-stream": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)*2/5] ^= 0x20
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range corrupt {
		dir := buildCorpus(t, seed, insts, 1<<9, benches...)
		damage(t, filepath.Join(dir, "gzip"+trace.CorpusMemberExt))

		o := uncached(opt)
		o.CorpusDir = dir
		m, err := RunMatrixContext(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m.Failures) != 0 {
			t.Fatalf("%s: corruption failed the sweep: %v", name, m.Failures)
		}
		if m.Corpus == nil || m.Corpus.Heals < 1 {
			t.Fatalf("%s: no heal recorded: %+v", name, m.Corpus)
		}
		sameResults(t, name, clean, m)
	}
}

// TestCorpusChipMatrixMatchesGenerated: a chip-mode matrix streams
// core 0 from the corpus and cores ≥ 1 from generators, so it matches
// the same matrix run without the corpus.
func TestCorpusChipMatrixMatchesGenerated(t *testing.T) {
	t.Parallel()

	const seed, insts = 17, 20000
	benches := []string{"gzip", "swim"}
	gen := Options{Instructions: insts, Seed: seed, Benchmarks: benches, Schemes: []Scheme{SchemeAdaptive},
		Cores: 2, PowerCapW: 15, Governor: "integral-gain"}
	corp := gen
	corp.CorpusDir = buildCorpus(t, seed, insts, 1<<10, benches...)

	mGen, err := RunMatrixContext(context.Background(), uncached(gen))
	if err != nil {
		t.Fatal(err)
	}
	mCorp, err := RunMatrixContext(context.Background(), uncached(corp))
	if err != nil {
		t.Fatal(err)
	}
	if len(mGen.Failures) != 0 || len(mCorp.Failures) != 0 {
		t.Fatalf("failures: gen=%v corpus=%v", mGen.Failures, mCorp.Failures)
	}
	sameResults(t, "chip", mGen, mCorp)
	if mCorp.Corpus == nil || mCorp.Corpus.Loads == 0 || mCorp.Corpus.Heals != 0 {
		t.Errorf("corpus stats %+v: want chunk loads and no heals", mCorp.Corpus)
	}
}

// TestCorpusWarmMatrixDecodesNothing: when every cell is a result-cache
// hit, no cell streams, so the member files are opened but no chunk is
// decoded.
func TestCorpusWarmMatrixDecodesNothing(t *testing.T) {
	t.Parallel()
	const seed, insts = 19, 20000
	opt := uncached(Options{Instructions: insts, Seed: seed, Schemes: []Scheme{SchemeAdaptive},
		CorpusDir: buildCorpus(t, seed, insts, 1<<10, "gzip", "swim")})
	cold, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Corpus == nil || cold.Corpus.Loads == 0 {
		t.Fatalf("cold corpus stats %+v: want chunk loads", cold.Corpus)
	}
	_, coldMisses := opt.Harness.cacheStats()
	warm, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := opt.Harness.cacheStats(); misses != coldMisses {
		t.Fatalf("warm matrix simulated %d cells, want every cell served from the cache", misses-coldMisses)
	}
	if warm.Corpus == nil || warm.Corpus.Loads != 0 {
		t.Errorf("warm corpus stats %+v: want 0 chunk loads", warm.Corpus)
	}
}

// TestCorpusOptionsMismatch: a corpus recorded at other coordinates
// than the options must be rejected as an invalid spec, as must a
// benchmark subset the corpus does not hold.
func TestCorpusOptionsMismatch(t *testing.T) {
	t.Parallel()
	const seed, insts = 5, 2000
	dir := buildCorpus(t, seed, insts, 1<<8, "gzip")

	bad := []Options{
		{Instructions: insts, Seed: seed + 1, CorpusDir: dir},
		{Instructions: insts * 2, Seed: seed, CorpusDir: dir},
		{Instructions: insts, Seed: seed, CorpusDir: dir, Benchmarks: []string{"swim"}},
		{Instructions: insts, Seed: seed, CorpusDir: filepath.Join(dir, "nope")},
	}
	for i, o := range bad {
		if _, err := RunMatrixContext(context.Background(), o); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("case %d: err = %v, want ErrInvalidSpec", i, err)
		}
	}
	// The happy path with everything explicit still runs.
	good := Options{Instructions: insts, Seed: seed, CorpusDir: dir, Benchmarks: []string{"gzip"}}
	if m, err := RunMatrixContext(context.Background(), good); err != nil || !m.Complete("gzip") {
		t.Errorf("explicit match failed: %v", err)
	}
}

// TestRowFlushOrderedAndStreamIdentical pins the incremental-render
// contract: RowFlush delivers every benchmark exactly once in
// benchmark order, and a FigureStream fed those events produces bytes
// identical to the batch renderer's Report.WriteTo.
func TestRowFlushOrderedAndStreamIdentical(t *testing.T) {
	t.Parallel()
	opt := fastOpt("adpcm_encode", "gzip", "swim")

	var events []RowEvent
	var f9, f10 bytes.Buffer
	s9, err := NewFigureStream(&f9, "fig9", opt)
	if err != nil {
		t.Fatal(err)
	}
	s10, err := NewFigureStream(&f10, "fig10", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.RowFlush = func(ev RowEvent) {
		events = append(events, ev)
		s9.Row(ev)
		s10.Row(ev)
	}
	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s9.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := s10.Finish(); err != nil {
		t.Fatal(err)
	}

	if len(events) != 3 {
		t.Fatalf("got %d row events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Index != i || ev.Total != 3 || ev.Bench != opt.Benchmarks[i] {
			t.Errorf("event %d out of order: %+v", i, ev)
		}
		if !ev.Complete {
			t.Errorf("event %d incomplete: %+v", i, ev)
		}
	}

	var want9, want10 bytes.Buffer
	rep9, rep10 := m.Figure9(), m.Figure10()
	rep9.WriteTo(&want9)   //nolint:errcheck // bytes.Buffer cannot fail
	rep10.WriteTo(&want10) //nolint:errcheck // bytes.Buffer cannot fail
	if f9.String() != want9.String() {
		t.Errorf("streamed fig9 differs from batch:\n--- stream\n%s--- batch\n%s", f9.String(), want9.String())
	}
	if f10.String() != want10.String() {
		t.Errorf("streamed fig10 differs from batch:\n--- stream\n%s--- batch\n%s", f10.String(), want10.String())
	}
}

// TestRowFlushDrainsOnCancellation: the interrupted path shares the
// flush path — a cancelled sweep still delivers one event per
// benchmark (via the post-sweep drain), and the streamed figure equals
// the batch render of the partial matrix.
func TestRowFlushDrainsOnCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every cell drains as skipped

	opt := fastOpt("gzip", "swim")
	var events []RowEvent
	var out bytes.Buffer
	stream, err := NewFigureStream(&out, "fig9", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.RowFlush = func(ev RowEvent) {
		events = append(events, ev)
		stream.Row(ev)
	}
	m, err := RunMatrixContext(ctx, opt)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if err := stream.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Complete || events[1].Complete {
		t.Fatalf("cancelled sweep events: %+v", events)
	}
	rep := m.Figure9()
	var want bytes.Buffer
	rep.WriteTo(&want) //nolint:errcheck // bytes.Buffer cannot fail
	if out.String() != want.String() {
		t.Errorf("cancelled stream differs from batch:\n--- stream\n%s--- batch\n%s", out.String(), want.String())
	}
	if !strings.Contains(out.String(), "omitted") {
		t.Errorf("omitted-rows note missing:\n%s", out.String())
	}
}

package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"mcddvfs/internal/isa"
)

// chunkedBytes serializes a profile's stream in the chunked format.
func chunkedBytes(t *testing.T, bench string, seed, insts int64, chunkInsts int) []byte {
	t.Helper()
	prof, err := ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(prof, seed, insts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := WriteChunked(&buf, gen, insts, chunkInsts)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteChunked reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestChunkedRoundTripBitIdentical is the format's core differential:
// a streamed chunked replay must emit exactly the instructions the
// generator (and the in-memory Recorded replay) emits, across chunk
// boundaries and a short final chunk.
func TestChunkedRoundTripBitIdentical(t *testing.T) {
	const insts, chunk = 10_000, 1 << 9 // 19 full chunks + a short one
	data := chunkedBytes(t, "gzip", 7, insts, chunk)
	c, err := OpenChunked(bytes.NewReader(data), int64(len(data)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "gzip" || c.Count() != insts || c.ChunkInstructions() != chunk {
		t.Fatalf("header round trip: name=%q count=%d chunkInsts=%d", c.Name(), c.Count(), c.ChunkInstructions())
	}
	if want := int(insts+chunk-1) / chunk; c.Chunks() != want {
		t.Fatalf("got %d chunks, want %d", c.Chunks(), want)
	}

	prof, _ := ByName("gzip")
	rec, err := RecordProfile(prof, 7, insts)
	if err != nil {
		t.Fatal(err)
	}
	mem, stream := rec.Replay(), c.Replay()
	for i := 0; i < insts; i++ {
		want, wok := mem.Next()
		got, gok := stream.Next()
		if !wok || !gok {
			t.Fatalf("stream ended early at %d (mem ok=%v, chunked ok=%v, err=%v)", i, wok, gok, stream.Err())
		}
		if got != want {
			t.Fatalf("instruction %d diverges:\n  recorded: %+v\n  chunked:  %+v", i, want, got)
		}
	}
	if _, ok := stream.Next(); ok || stream.Err() != nil {
		t.Fatalf("stream did not end cleanly (err=%v)", stream.Err())
	}
}

// TestChunkedWindowBoundsMemory drives several concurrent-style
// cursors across a many-chunk trace and asserts peak decoded residency
// never exceeds the window bound.
func TestChunkedWindowBoundsMemory(t *testing.T) {
	const insts, chunk, window = 20_000, 1 << 8, 3
	data := chunkedBytes(t, "swim", 3, insts, chunk)
	c, err := OpenChunked(bytes.NewReader(data), int64(len(data)), window)
	if err != nil {
		t.Fatal(err)
	}
	cursors := []*ChunkedReplayer{c.Replay(), c.Replay(), c.Replay()}
	// Interleave unevenly so cursors sit in different chunks.
	for done := 0; done < len(cursors); {
		done = 0
		for i, cur := range cursors {
			for j := 0; j <= i*40; j++ {
				if _, ok := cur.Next(); !ok {
					done++
					if cur.Err() != nil {
						t.Fatal(cur.Err())
					}
					break
				}
			}
		}
	}
	var raw int64 // the whole trace's decoded size
	for _, e := range c.idx {
		raw += int64(e.rawLen)
	}
	if c.WindowBytes() >= raw {
		t.Fatalf("test is vacuous: window %d B not smaller than whole trace %d B", c.WindowBytes(), raw)
	}
	if peak := c.PeakResidentBytes(); peak > c.WindowBytes() {
		t.Fatalf("peak resident %d B exceeds window bound %d B", peak, c.WindowBytes())
	}
	if c.Loads() < int64(c.Chunks()) {
		t.Fatalf("only %d loads for %d chunks?", c.Loads(), c.Chunks())
	}
}

// TestChunkedWindowQuarterOfColumns: a gzip member at default chunking
// keeps a window at most a quarter of what v2's 25-byte columns needed
// (DefaultChunkWindow full chunks of 25 bytes an instruction).
func TestChunkedWindowQuarterOfColumns(t *testing.T) {
	const insts = 3 * DefaultChunkInstructions / 2
	data := chunkedBytes(t, "gzip", 1, insts, 0)
	c, err := OpenChunked(bytes.NewReader(data), int64(len(data)), 0)
	if err != nil {
		t.Fatal(err)
	}
	const v2 = DefaultChunkWindow * DefaultChunkInstructions * 25
	if w := c.WindowBytes(); w > v2/4 {
		t.Fatalf("window %d B, want at most a quarter of v2's %d B", w, v2)
	}
}

// TestChunkedRejectsCorruption flips bytes in each structural region
// and expects a clean error — at open for header/index/footer damage,
// at replay for payload damage.
func TestChunkedRejectsCorruption(t *testing.T) {
	const insts, chunk = 4000, 1 << 9
	data := chunkedBytes(t, "gcc", 5, insts, chunk)

	open := func(b []byte) (*Chunked, error) {
		return OpenChunked(bytes.NewReader(b), int64(len(b)), 2)
	}
	replayAll := func(c *Chunked) error {
		cur := c.Replay()
		for {
			if _, ok := cur.Next(); !ok {
				return cur.Err()
			}
		}
	}

	if _, err := open(data[:len(data)-7]); err == nil {
		t.Error("truncated footer accepted")
	}
	if _, err := open(data[:len(data)/3]); err == nil {
		t.Error("truncated file accepted")
	}

	flip := func(off int) []byte {
		b := append([]byte(nil), data...)
		b[off] ^= 0x40
		return b
	}
	if _, err := open(flip(0)); err == nil {
		t.Error("bad magic accepted")
	}
	// Index entry damage (index sits right before the 16-byte footer).
	if _, err := open(flip(len(data) - 30)); err == nil {
		t.Error("corrupt index accepted")
	}
	// Payload damage: open succeeds (lazy CRC), replay must fail.
	c, err := open(flip(chunkedHeaderMin + len("gcc") + 10))
	if err != nil {
		t.Fatalf("payload corruption rejected at open (should be lazy): %v", err)
	}
	if err := replayAll(c); err == nil || !strings.Contains(err.Error(), "chunk") {
		t.Errorf("corrupt payload replayed without error (err=%v)", err)
	}
}

// TestChunkedRejectsInvalidClass hand-builds a file whose payload CRC
// is valid but whose meta column carries an out-of-range class: the
// replayer must error, never hand the simulator a bad instruction.
func TestChunkedRejectsInvalidClass(t *testing.T) {
	bad := badClassSource{n: 4}
	var buf bytes.Buffer
	if _, err := WriteChunked(&buf, &bad, 4, 8); err != nil {
		t.Fatal(err)
	}
	// WriteChunked masks nothing: the invalid class byte is in the
	// payload with a CRC computed over it.
	c, err := OpenChunked(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 1)
	if err != nil {
		t.Fatal(err)
	}
	cur := c.Replay()
	for {
		in, ok := cur.Next()
		if !ok {
			break
		}
		if !in.Class.Valid() {
			t.Fatalf("replayer emitted invalid class %d", in.Class)
		}
	}
	if cur.Err() == nil || !strings.Contains(cur.Err().Error(), "invalid class") {
		t.Fatalf("want invalid-class error, got %v", cur.Err())
	}
}

// badClassSource emits instructions whose class is out of range.
type badClassSource struct{ n int }

func (s *badClassSource) Name() string { return "bad" }
func (s *badClassSource) Next() (isa.Inst, bool) {
	if s.n == 0 {
		return isa.Inst{}, false
	}
	s.n--
	return isa.Inst{PC: 64, Class: isa.Class(isa.NumClasses + 3)}, true
}

// TestWriteReadRoundTrip: a trace written at the default chunk size
// (one short chunk) reads back with its header and exactly the
// generator's instructions, and nothing past the declared count.
func TestWriteReadRoundTrip(t *testing.T) {
	prof, _ := ByName("gsm_decode")
	const n = 5000
	gen, err := NewGenerator(prof, 21, n)
	if err != nil {
		t.Fatal(err)
	}
	// Capture a reference copy from an identical generator.
	ref, _ := NewGenerator(prof, 21, n)
	want := make([]isa.Inst, 0, n)
	for {
		in, ok := ref.Next()
		if !ok {
			break
		}
		want = append(want, in)
	}

	var buf bytes.Buffer
	if _, err := WriteChunked(&buf, gen, n, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChunked(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "gsm_decode" || c.Count() != n || c.Chunks() != 1 {
		t.Errorf("header = (%q,%d,%d chunks)", c.Name(), c.Count(), c.Chunks())
	}
	r := c.Replay()
	for i := 0; i < n; i++ {
		in, ok := r.Next()
		if !ok {
			t.Fatalf("reader dry at %d: %v", i, r.Err())
		}
		if in != want[i] {
			t.Fatalf("instruction %d mismatch:\n got %+v\nwant %+v", i, in, want[i])
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("reader returned an instruction past the declared count")
	}
	if r.Err() != nil {
		t.Errorf("unexpected stream error: %v", r.Err())
	}
}

// TestReaderDetectsTruncation cuts a trace at every length short of
// whole: each cut must be refused at open or end its replay with an
// error, never pass as a complete stream.
func TestReaderDetectsTruncation(t *testing.T) {
	const n = 50
	data := chunkedBytes(t, "gzip", 1, n, 16)
	for cut := 0; cut < len(data); cut++ {
		b := data[:cut]
		c, err := OpenChunked(bytes.NewReader(b), int64(len(b)), 1)
		if err != nil {
			continue
		}
		r := c.Replay()
		got := 0
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			got++
		}
		if r.Err() == nil {
			t.Errorf("cut at %d of %d bytes: truncation not reported", cut, len(data))
		}
		if got >= n {
			t.Errorf("cut at %d of %d bytes: read %d instructions", cut, len(data), got)
		}
	}
}

// TestReaderDetectsBadClass writes a real stream whose first
// instruction carries an out-of-range class (the chunk CRC covers it,
// so only class validation can catch it): the reader must emit nothing
// and report the error.
func TestReaderDetectsBadClass(t *testing.T) {
	prof, _ := ByName("gzip")
	gen, _ := NewGenerator(prof, 1, 2)
	var buf bytes.Buffer
	if _, err := WriteChunked(&buf, &firstClassBad{src: gen}, 2, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChunked(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := c.Replay()
	if _, ok := r.Next(); ok {
		t.Error("invalid class accepted")
	}
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "invalid class") {
		t.Errorf("want invalid-class error, got %v", r.Err())
	}
}

// firstClassBad passes src through, giving its first instruction an
// out-of-range class.
type firstClassBad struct {
	src  Source
	done bool
}

func (s *firstClassBad) Name() string { return s.src.Name() }
func (s *firstClassBad) Next() (isa.Inst, bool) {
	in, ok := s.src.Next()
	if ok && !s.done {
		in.Class = isa.Class(isa.NumClasses + 1)
		s.done = true
	}
	return in, ok
}

// TestWriteSourceRunsDry: the writer refuses a count its source cannot
// supply.
func TestWriteSourceRunsDry(t *testing.T) {
	prof, _ := ByName("gzip")
	gen, _ := NewGenerator(prof, 1, 100)
	var buf bytes.Buffer
	if _, err := WriteChunked(&buf, gen, 200, 0); err == nil {
		t.Error("over-count accepted")
	}
}

// TestReaderRejectsGarbage: anything but a current chunked file fails
// to open with a clean error. A file in the retired fixed-record v1
// format is rejected by an error that names the format it wants.
func TestReaderRejectsGarbage(t *testing.T) {
	v1 := []byte("MCDT")
	v1 = binary.LittleEndian.AppendUint32(v1, 1) // version
	v1 = binary.LittleEndian.AppendUint64(v1, 2) // instruction count
	v1 = binary.LittleEndian.AppendUint16(v1, 4) // name length
	v1 = append(v1, "gzip"...)                   // name
	v1 = append(v1, make([]byte, 2*34)...)       // two fixed-width records
	cases := [][]byte{nil, []byte("XXXX"), []byte("MCDTxxxx"), v1}
	for i, b := range cases {
		if _, err := OpenChunked(bytes.NewReader(b), int64(len(b)), 0); err == nil {
			t.Errorf("case %d: accepted garbage", i)
		}
	}
	_, err := OpenChunked(bytes.NewReader(v1), int64(len(v1)), 0)
	if err == nil || !strings.Contains(err.Error(), chunkedMagic) {
		t.Errorf("v1 file: error %v does not name %s", err, chunkedMagic)
	}
}

// TestReaderImplementsSource: every stream the simulator can consume
// is a Source.
func TestReaderImplementsSource(t *testing.T) {
	var _ Source = (*Generator)(nil)
	var _ Source = (*Replayer)(nil)
	var _ Source = (*ChunkedReplayer)(nil)
}

// TestChunkedOversizeChunkRejected guards the allocation bound: an
// index demanding more than maxChunkInstructions per chunk must be
// rejected before any payload allocation.
func TestChunkedOversizeChunkRejected(t *testing.T) {
	data := chunkedBytes(t, "gzip", 1, 100, 50)
	b := append([]byte(nil), data...)
	// Header chunkInsts field is at offset 8.
	binary.LittleEndian.PutUint32(b[8:], maxChunkInstructions+1)
	if _, err := OpenChunked(bytes.NewReader(b), int64(len(b)), 1); err == nil {
		t.Fatal("oversize chunkInsts accepted")
	}
	var src badClassSource
	if _, err := WriteChunked(&bytes.Buffer{}, &src, 1, maxChunkInstructions+1); err == nil {
		t.Fatal("writer accepted oversize chunk size")
	}
}

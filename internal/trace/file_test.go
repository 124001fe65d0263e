package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"mcddvfs/internal/isa"
)

// fileBytes serializes a profile's stream as a trace file.
func fileBytes(t *testing.T, bench string, seed, insts int64) []byte {
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
	n, err := Write(&buf, gen, insts)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Write reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// readBytes reads a trace file held in memory.
func readBytes(b []byte) (*Recorded, error) { return ReadRecorded(bytes.NewReader(b)) }

// frameFile frames raw as the payload of an n-instruction trace file
// named "bad", claiming rawLen decoded bytes, with a valid CRC over
// whatever raw holds.
func frameFile(raw []byte, n, rawLen uint64) []byte {
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.BestSpeed)
	fw.Write(raw)
	fw.Close()
	b := []byte(fileMagic)
	b = binary.LittleEndian.AppendUint32(b, FileVersion)
	b = binary.LittleEndian.AppendUint64(b, n)
	b = binary.LittleEndian.AppendUint64(b, rawLen)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(raw, fileCRC))
	b = binary.LittleEndian.AppendUint16(b, 3)
	b = append(b, "bad"...)
	return append(b, comp.Bytes()...)
}

// TestChunkedRoundTripBitIdentical is the format's core differential:
// a file-read Recorded holds exactly the bytes Record builds, with no
// spare capacity, and replays exactly the instructions the in-memory
// recording does. The stream is long enough that the reader's buffer
// grows past its first step.
func TestChunkedRoundTripBitIdentical(t *testing.T) {
	const insts = 40_000
	got, err := readBytes(fileBytes(t, "gzip", 7, insts))
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := ByName("gzip")
	rec, err := RecordProfile(prof, 7, insts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replay().Name() != "gzip" || got.Len() != insts {
		t.Fatalf("header round trip: name=%q count=%d", got.Replay().Name(), got.Len())
	}
	if len(got.code) <= inflateStep {
		t.Fatalf("test is vacuous: %d decoded bytes fit the first %d-byte step", len(got.code), inflateStep)
	}
	if !bytes.Equal(got.code, rec.code) {
		t.Fatal("file-read codec bytes differ from the recording's")
	}
	if want := int64(len(got.code) + len("gzip")); got.Bytes() != want {
		t.Errorf("file-read Bytes = %d, want %d (no spare capacity)", got.Bytes(), want)
	}
	mem, file := rec.Replay(), got.Replay()
	for i := 0; i < insts; i++ {
		want, wok := mem.Next()
		in, ok := file.Next()
		if !wok || !ok || in != want {
			t.Fatalf("instruction %d: file %+v (ok=%v), recorded %+v (ok=%v)", i, in, ok, want, wok)
		}
	}
	if _, ok := file.Next(); ok {
		t.Fatal("file replay ran past its count")
	}
}

// TestChunkedRejectsCorruption flips bytes in each field of the file
// and cuts it short: every damage is an error at read.
func TestChunkedRejectsCorruption(t *testing.T) {
	data := fileBytes(t, "gcc", 5, 4000)
	flip := func(off int) []byte {
		b := append([]byte(nil), data...)
		b[off] ^= 0x40
		return b
	}
	cases := map[string][]byte{
		"truncated tail":  data[:len(data)-7],
		"truncated third": data[:len(data)/3],
		"bad magic":       flip(0),
		"count":           flip(8),
		"decoded length":  flip(16),
		"checksum":        flip(24),
		"name length":     flip(28),
		"payload":         flip(fileHeaderLen + len("gcc") + 10),
		"payload end":     flip(len(data) - 2),
		"trailing byte":   append(append([]byte(nil), data...), 0),
	}
	for name, b := range cases {
		if _, err := readBytes(b); err == nil {
			t.Errorf("%s: damaged file read without error", name)
		}
	}
}

// TestChunkedRejectsInvalidClass writes a file whose payload CRC is
// valid but whose instructions carry an out-of-range class: the read
// must fail, never hand the simulator a bad instruction.
func TestChunkedRejectsInvalidClass(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, &badClassSource{n: 4}, 4); err != nil {
		t.Fatal(err)
	}
	// Write masks nothing: the invalid opcode is in the payload with a
	// CRC computed over it.
	if _, err := readBytes(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "invalid class") {
		t.Fatalf("want invalid-class error, got %v", err)
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

// TestWriteReadRoundTrip: a written trace reads back with its header
// and exactly the generator's instructions, and nothing past the
// declared count.
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
	if _, err := Write(&buf, gen, n); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecorded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := rec.Replay()
	if r.Name() != "gsm_decode" || rec.Len() != n {
		t.Errorf("header = (%q,%d)", r.Name(), rec.Len())
	}
	for i := 0; i < n; i++ {
		in, ok := r.Next()
		if !ok {
			t.Fatalf("reader dry at %d", i)
		}
		if in != want[i] {
			t.Fatalf("instruction %d mismatch:\n got %+v\nwant %+v", i, in, want[i])
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("reader returned an instruction past the declared count")
	}
}

// TestReaderDetectsTruncation cuts a trace at every length short of
// whole: each cut must be refused.
func TestReaderDetectsTruncation(t *testing.T) {
	data := fileBytes(t, "gzip", 1, 50)
	for cut := 0; cut < len(data); cut++ {
		if _, err := readBytes(data[:cut]); err == nil {
			t.Errorf("cut at %d of %d bytes: truncation not reported", cut, len(data))
		}
	}
}

// TestReaderDetectsBadClass writes a real stream whose first
// instruction carries an out-of-range class (the CRC covers it, so
// only class validation can catch it): the read must fail.
func TestReaderDetectsBadClass(t *testing.T) {
	prof, _ := ByName("gzip")
	gen, _ := NewGenerator(prof, 1, 2)
	var buf bytes.Buffer
	if _, err := Write(&buf, &firstClassBad{src: gen}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecorded(&buf); err == nil || !strings.Contains(err.Error(), "invalid class") {
		t.Errorf("want invalid-class error, got %v", err)
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
// supply, and writes nothing.
func TestWriteSourceRunsDry(t *testing.T) {
	prof, _ := ByName("gzip")
	gen, _ := NewGenerator(prof, 1, 100)
	var buf bytes.Buffer
	if _, err := Write(&buf, gen, 200); err == nil || !strings.Contains(err.Error(), "ran dry") {
		t.Errorf("over-count accepted (err=%v)", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused write left %d bytes", buf.Len())
	}
}

// TestReaderRejectsGarbage: anything but a current trace file fails to
// read with a clean error. Files of the retired formats — the
// fixed-record v1 (magic "MCDT"), and "MCDC" versions 2 and 3 — are
// refused by an error naming the version read and the one wanted.
func TestReaderRejectsGarbage(t *testing.T) {
	v1 := []byte("MCDT")
	v1 = binary.LittleEndian.AppendUint32(v1, 1) // version
	v1 = binary.LittleEndian.AppendUint64(v1, 2) // instruction count
	v1 = binary.LittleEndian.AppendUint16(v1, 4) // name length
	v1 = append(v1, "gzip"...)                   // name
	v1 = append(v1, make([]byte, 2*34)...)       // two fixed-width records
	for i, b := range [][]byte{nil, []byte("XXXX"), []byte("XXXXxxxx"), []byte("MCDTxxxx"), v1} {
		if _, err := readBytes(b); err == nil {
			t.Errorf("case %d: accepted garbage", i)
		}
	}
	retired := map[uint32][]byte{1: v1}
	for _, v := range []uint32{2, 3} {
		// A v2/v3 header: magic, version, chunk size, name length, name.
		b := binary.LittleEndian.AppendUint32([]byte(fileMagic), v)
		b = binary.LittleEndian.AppendUint32(b, 1<<16)
		b = binary.LittleEndian.AppendUint16(b, 4)
		retired[v] = append(append(b, "gzip"...), make([]byte, 64)...)
	}
	for v, b := range retired {
		_, err := readBytes(b)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) || !strings.Contains(err.Error(), "version 4") || !strings.Contains(err.Error(), fileMagic) {
			t.Errorf("v%d file: error %v does not name version %d, version 4 and %s", v, err, v, fileMagic)
		}
	}
}

// TestReaderImplementsSource: every stream the simulator can consume
// is a Source.
func TestReaderImplementsSource(t *testing.T) {
	var _ Source = (*Generator)(nil)
	var _ Source = (*Replayer)(nil)
}

// TestChunkedOversizeChunkRejected guards the header's bounds: an
// instruction count its decoded length cannot hold is refused before
// anything is inflated, and the writer refuses a negative count.
func TestChunkedOversizeChunkRejected(t *testing.T) {
	b := append([]byte(nil), fileBytes(t, "gzip", 1, 100)...)
	binary.LittleEndian.PutUint64(b[8:], 1<<62)
	if _, err := readBytes(b); err == nil || !strings.Contains(err.Error(), "decoded bytes") {
		t.Fatalf("oversize count accepted (err=%v)", err)
	}
	if _, err := Write(&bytes.Buffer{}, &badClassSource{}, -1); err == nil {
		t.Fatal("writer accepted a negative count")
	}
}

// TestReaderAllocationBounded: a header claiming about 1 TB decoded
// over a 100-byte body is refused having allocated about what the body
// inflates to — no allocation is sized from the header's claim alone.
func TestReaderAllocationBounded(t *testing.T) {
	// A body of 100 flate bytes that inflates to a run of zeros.
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.BestCompression)
	zeros := make([]byte, 1<<10)
	for comp.Len() < 100 {
		fw.Write(zeros)
		fw.Flush()
	}
	fw.Close()
	const claim = 1 << 40
	b := []byte(fileMagic)
	b = binary.LittleEndian.AppendUint32(b, FileVersion)
	b = binary.LittleEndian.AppendUint64(b, claim/4)
	b = binary.LittleEndian.AppendUint64(b, claim)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = append(b, comp.Bytes()[:100]...)

	// The reader's own state (a bufio.Reader, a flate decoder and its
	// window) is about 50 KB and its first buffer step 64 KiB; the
	// ceiling leaves room for both and for the body's inflated bytes.
	const ceiling = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readBytes(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 1 TB claim over a 100-byte body was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Fatalf("refusing the claim allocated %d bytes, want at most %d", got, ceiling)
	}
}

// TestOpenChunkedRefusesVersion2: a v2 file — the retired 25-byte
// columnar chunk payloads — is refused with an error naming both
// versions.
func TestOpenChunkedRefusesVersion2(t *testing.T) {
	data := fileBytes(t, "gzip", 1, 100)
	binary.LittleEndian.PutUint32(data[4:], 2)
	_, err := readBytes(data)
	if err == nil || !strings.Contains(err.Error(), "version 2 file, want \"MCDC\" version 4") {
		t.Errorf("v2 file: err = %v, want one naming versions 2 and 4", err)
	}
}

// TestOpenChunkedBoundsDecodedLength: a header whose decoded length no
// run of its instruction count could have is refused before anything
// is inflated or allocated, and a payload that inflates to fewer or
// more bytes than the header declares is refused.
func TestOpenChunkedBoundsDecodedLength(t *testing.T) {
	const n = 4
	nops := bytes.Repeat([]byte{byte(isa.Nop), 1}, n)
	for _, tc := range []struct {
		raw    []byte
		rawLen int
		want   string
	}{
		{make([]byte, n*minInstBytes-1), n*minInstBytes - 1, "decoded bytes"},
		{make([]byte, n*maxInstBytes+1), n*maxInstBytes + 1, "decoded bytes"},
		{nops, len(nops) + 1, "payload ends"},
		{append(nops, 0), len(nops), "longer than"},
	} {
		_, err := readBytes(frameFile(tc.raw, n, uint64(tc.rawLen)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d decoded bytes declared for %d: err = %v, want %q", tc.rawLen, len(tc.raw), err, tc.want)
		}
	}
}

// TestReaderReportsDamage carries each damaged run as a file payload
// under a valid CRC: the read fails with the run's stream error.
func TestReaderReportsDamage(t *testing.T) {
	for _, tc := range damagedRuns {
		if len(tc.raw) < int(tc.n)*minInstBytes {
			continue // the header bounds refuse it before any decode
		}
		_, err := readBytes(frameFile(tc.raw, uint64(tc.n), uint64(len(tc.raw))))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

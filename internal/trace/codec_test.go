package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"mcddvfs/internal/isa"
)

// damagedRuns are encoded runs the decoder must refuse, each with the
// instruction count it claims and the error it must end with.
var damagedRuns = []struct {
	name string
	raw  []byte
	n    int64
	want error
}{
	{"empty run", nil, 1, errTruncated},
	{"short record", []byte{byte(isa.IntALU)}, 1, errTruncated},
	{"truncated PC varint", []byte{byte(isa.IntALU) | pcJumpBit, 0x80}, 1, errTruncated},
	{"truncated Dep1 varint", []byte{byte(isa.IntALU), 0x81}, 1, errTruncated},
	{"missing Dep2", []byte{byte(isa.IntALU) | dep2Bit, 1}, 1, errTruncated},
	{"short payload", []byte{byte(isa.Load) | 2<<lenShift, 1, 0xAA, 0xBB}, 1, errTruncated},
	{"truncated payload varint", []byte{byte(isa.Store) | lenVarint<<lenShift, 1, 0xFF}, 1, errTruncated},
	{"Dep1 past 32 bits", []byte{byte(isa.IntALU), 0x80, 0x80, 0x80, 0x80, 0x10}, 1, errVarint},
	{"PC varint past 64 bits", append([]byte{byte(isa.IntALU) | pcJumpBit}, bytes.Repeat([]byte{0xFF}, 11)...), 1, errVarint},
	{"invalid class", []byte{12, 1}, 1, errInvalidClass},
	{"invalid class after a good one", []byte{byte(isa.Nop), 1, opInvalid, 1}, 2, errInvalidClass},
	{"trailing bytes", []byte{byte(isa.Nop), 1, 0}, 1, errTrailing},
}

// TestInstRunRejectsDamage: every malformed run ends with its stream
// error, never a panic or an instruction decoded from bytes past the
// damage.
func TestInstRunRejectsDamage(t *testing.T) {
	for _, tc := range damagedRuns {
		run := instRun{buf: tc.raw, left: tc.n}
		var got int64
		for {
			if _, ok := run.next(); !ok {
				break
			}
			got++
		}
		if !errors.Is(run.err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, run.err, tc.want)
		}
		if got >= tc.n {
			t.Errorf("%s: decoded all %d instructions", tc.name, got)
		}
	}
}

// TestChunkedReplayerReportsDamage carries each damaged run as a chunk
// payload under a valid CRC: OpenChunked accepts the frame, and the
// replayer ends with a stream error naming the damage.
func TestChunkedReplayerReportsDamage(t *testing.T) {
	for _, tc := range damagedRuns {
		if len(tc.raw) < int(tc.n)*minInstBytes {
			continue // OpenChunked refuses the index before any decode
		}
		data := oneChunkFile(tc.raw, tc.n)
		c, err := OpenChunked(bytes.NewReader(data), int64(len(data)), 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cur := c.Replay()
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		if err := cur.Err(); !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "chunk 0") {
			t.Errorf("%s: err = %v, want %v in chunk 0", tc.name, err, tc.want)
		}
	}
}

// oneChunkFile frames raw as the single chunk of an n-instruction
// chunked file, with a valid CRC over whatever raw holds.
func oneChunkFile(raw []byte, n int64) []byte {
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.BestSpeed)
	fw.Write(raw)
	fw.Close()
	b := []byte(chunkedMagic)
	b = binary.LittleEndian.AppendUint32(b, ChunkedVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint16(b, 3)
	b = append(b, "bad"...)
	off := len(b)
	b = append(b, comp.Bytes()...)
	indexOff := len(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, uint64(off))
	b = binary.LittleEndian.AppendUint32(b, uint32(comp.Len()))
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(raw)))
	b = binary.LittleEndian.AppendUint32(b, checksumChunk(raw))
	b = binary.LittleEndian.AppendUint32(b, checksumChunk(b[indexOff:]))
	indexLen := len(b) - indexOff
	b = binary.LittleEndian.AppendUint64(b, uint64(indexOff))
	b = binary.LittleEndian.AppendUint32(b, uint32(indexLen))
	return append(b, chunkedFooterMagic...)
}

// TestOpenChunkedRefusesVersion2: a chunked v2 file — the retired
// 25-byte columnar payloads — is refused with an error naming both
// versions.
func TestOpenChunkedRefusesVersion2(t *testing.T) {
	data := chunkedBytes(t, "gzip", 1, 100, 0)
	binary.LittleEndian.PutUint32(data[4:], 2)
	_, err := OpenChunked(bytes.NewReader(data), int64(len(data)), 0)
	if err == nil || !strings.Contains(err.Error(), "version 2, want 3") {
		t.Errorf("v2 file: err = %v, want one naming versions 2 and 3", err)
	}
}

// TestOpenChunkedBoundsDecodedLength: an index entry whose decoded
// length no run of its instruction count could have is refused at open,
// before any chunk is inflated or allocated.
func TestOpenChunkedBoundsDecodedLength(t *testing.T) {
	const n = 4
	for _, rawLen := range []int{n*minInstBytes - 1, n*maxInstBytes + 1} {
		data := oneChunkFile(make([]byte, rawLen), n)
		if _, err := OpenChunked(bytes.NewReader(data), int64(len(data)), 1); err == nil || !strings.Contains(err.Error(), "decoded bytes") {
			t.Errorf("decoded length %d for %d instructions: err = %v", rawLen, n, err)
		}
	}
}

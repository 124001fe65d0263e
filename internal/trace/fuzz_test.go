package trace

import (
	"bytes"
	"testing"
)

// FuzzChunked feeds arbitrary bytes to the chunked-format (v2)
// decoder: open must reject malformed headers, footers, and indexes
// with clean errors; a file that opens must replay either to a clean
// end or to a stream error — never a panic, an invalid instruction,
// or an unbounded allocation (the maxChunkInstructions cap).
func FuzzChunked(f *testing.F) {
	prof, _ := ByName("gzip")
	gen, _ := NewGenerator(prof, 1, 300)
	var buf bytes.Buffer
	if _, err := WriteChunked(&buf, gen, 300, 64); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                         // truncated footer
	f.Add(valid[:len(valid)*2/3])                       // truncated index
	f.Add(append([]byte(nil), valid[len(valid)/4:]...)) // missing header
	f.Add([]byte("MCDCgarbageXDCM"))
	f.Add([]byte{})
	// Single flipped bytes in each region: header, payload, index.
	for _, off := range []int{5, 30, len(valid) - 20} {
		b := append([]byte(nil), valid...)
		b[off] ^= 0xFF
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := OpenChunked(bytes.NewReader(data), int64(len(data)), 2)
		if err != nil {
			return
		}
		cur := c.Replay()
		count := int64(0)
		for count < 1<<17 {
			in, ok := cur.Next()
			if !ok {
				break
			}
			if !in.Class.Valid() {
				t.Fatalf("chunked replayer produced invalid class %d", in.Class)
			}
			count++
		}
		if cur.Err() == nil && count < c.Count() && count < 1<<17 {
			t.Fatalf("stream ended at %d of %d with no error", count, c.Count())
		}
		if peak := c.PeakResidentBytes(); peak > c.WindowBytes() {
			t.Fatalf("peak %d exceeds window bound %d", peak, c.WindowBytes())
		}
	})
}

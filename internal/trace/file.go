package trace

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Trace file format, version 4 — the repository's one trace file
// format (cmd/tracegen -o writes it, -stats and -replay read it). A
// file is one recording:
//
//	header:  magic "MCDC" | version u32 | count u64 | rawLen u64 |
//	         crc u32 | nameLen u16 | name
//	body:    one flate stream of the recording's rawLen codec bytes
//
// Every integer is little-endian. The decoded body is the count
// instructions in the instruction codec (codec.go), the bytes a
// Recorded holds in memory, so reading a file yields a Recorded and
// replay goes through the one Replayer. The CRC-32C covers the decoded
// bytes: it proves integrity through the compressor, not just of the
// stored bytes. ReadRecorded checks the whole file before it returns —
// the header's bounds, the inflated length, the CRC, and every
// instruction — so a file-read Recorded replays to its end like one
// Record built. Files of the retired formats (magic "MCDT" version 1,
// "MCDC" versions 2 and 3) are refused with an error naming the
// version read.
const (
	fileMagic   = "MCDC"
	v1FileMagic = "MCDT"

	// FileVersion is the trace file version Write writes and the only
	// one ReadRecorded accepts.
	FileVersion = 4

	fileHeaderLen = 4 + 4 + 8 + 8 + 4 + 2 // magic + version + count + rawLen + crc + nameLen

	// inflateStep is the most ReadRecorded allocates for a body before
	// the body has inflated to that size: it grows the buffer by
	// doubling up to the header's decoded length, so a header claiming
	// far more than its body holds costs about what the body inflates
	// to, never the claim.
	inflateStep = 1 << 16
)

// fileCRC is the table of the decoded-body checksum (CRC-32C,
// hardware-accelerated on the platforms that matter).
var fileCRC = crc32.MakeTable(crc32.Castagnoli)

// Write records count instructions of src and writes them to w as a
// trace file, returning the number of bytes written. The instruction
// count must be known up front (a Generator knows its Remaining); a
// source that runs dry before count is an error.
func Write(w io.Writer, src Source, count int64) (int64, error) {
	if count < 0 {
		return 0, fmt.Errorf("trace: negative instruction count %d", count)
	}
	name := src.Name()
	if len(name) > math.MaxUint16 {
		return 0, fmt.Errorf("trace: name too long")
	}
	rec := record(src, count, count)
	if rec.n < count {
		return 0, fmt.Errorf("trace: source ran dry at instruction %d of %d", rec.n, count)
	}

	hdr := make([]byte, fileHeaderLen, fileHeaderLen+len(name))
	copy(hdr, fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], FileVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(rec.n))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(rec.code)))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.Checksum(rec.code, fileCRC))
	binary.LittleEndian.PutUint16(hdr[28:], uint16(len(name)))
	hdr = append(hdr, name...)
	cw := &countingWriter{w: w}
	if _, err := cw.Write(hdr); err != nil {
		return cw.n, err
	}
	fw, err := flate.NewWriter(cw, flate.BestSpeed)
	if err != nil {
		return cw.n, err
	}
	if _, err := fw.Write(rec.code); err != nil {
		return cw.n, err
	}
	err = fw.Close()
	return cw.n, err
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadRecorded reads a whole trace file from r into a Recorded. Every
// header inconsistency, truncation, checksum mismatch, undecodable
// instruction and trailing byte is an error here, so the Recorded it
// returns replays to its end.
func ReadRecorded(r io.Reader) (*Recorded, error) {
	br := bufio.NewReader(r)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:8]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	magic, version := string(hdr[:4]), binary.LittleEndian.Uint32(hdr[4:])
	if magic != fileMagic && magic != v1FileMagic {
		return nil, fmt.Errorf("trace: bad magic %q, want %q (trace file version %d)", magic, fileMagic, FileVersion)
	}
	if magic != fileMagic || version != FileVersion {
		return nil, fmt.Errorf("trace: %q version %d file, want %q version %d (re-write the trace with this build)", magic, version, fileMagic, FileVersion)
	}
	if _, err := io.ReadFull(br, hdr[8:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	count, rawLen := binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint64(hdr[16:])
	crc := binary.LittleEndian.Uint32(hdr[24:])
	name := make([]byte, binary.LittleEndian.Uint16(hdr[28:]))
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	// Divisions keep the bounds free of overflow for any header.
	if count > rawLen/minInstBytes || count < (rawLen+maxInstBytes-1)/maxInstBytes || rawLen > math.MaxInt64 {
		return nil, fmt.Errorf("trace: %q declares %d decoded bytes for %d instructions", name, rawLen, count)
	}

	code, err := inflate(br, int64(rawLen))
	if err != nil {
		return nil, fmt.Errorf("trace: %q: %w", name, err)
	}
	if crc32.Checksum(code, fileCRC) != crc {
		return nil, fmt.Errorf("trace: %q: checksum mismatch (corrupt payload)", name)
	}
	rec := &Recorded{name: string(name), n: int64(count), code: code}
	run := instRun{buf: code, left: rec.n}
	for i := int64(0); ; i++ {
		if _, ok := run.next(); !ok {
			if run.err != nil {
				return nil, fmt.Errorf("trace: %q: %w at instruction %d", name, run.err, i)
			}
			return rec, nil
		}
	}
}

// inflate reads br's flate stream, which must decode to exactly rawLen
// bytes and end the input. The buffer grows by doubling up to rawLen,
// so it ends exactly rawLen long with no spare capacity, and a body
// that inflates to less than it claims fails having allocated about
// what it does inflate to.
func inflate(br *bufio.Reader, rawLen int64) ([]byte, error) {
	fr := flate.NewReader(br)
	code := make([]byte, 0, min(rawLen, inflateStep))
	for int64(len(code)) < rawLen {
		if len(code) == cap(code) {
			grown := make([]byte, len(code), min(rawLen, 2*int64(cap(code))))
			copy(grown, code)
			code = grown
		}
		n, err := fr.Read(code[len(code):cap(code)])
		code = code[:len(code)+n]
		if err == io.EOF && int64(len(code)) < rawLen {
			return nil, fmt.Errorf("payload ends at %d of %d decoded bytes", len(code), rawLen)
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("inflating: %w", err)
		}
	}
	var over [1]byte
	if n, err := io.ReadFull(fr, over[:]); n != 0 {
		return nil, fmt.Errorf("payload longer than its %d declared decoded bytes", rawLen)
	} else if err != io.EOF {
		return nil, fmt.Errorf("inflating: %w", err)
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("trailing bytes after the payload")
	} else if err != io.EOF {
		return nil, err
	}
	return code, nil
}

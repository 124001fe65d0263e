package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"mcddvfs/internal/isa"
)

// Chunked trace format, version 2 — the repository's one trace file
// format, for single traces and corpus members alike. A file is
// replayable with memory bounded by the chunk window regardless of
// trace length:
//
//	header:  magic "MCDC" | version u32 | chunkInsts u32 |
//	         nameLen u16 | name
//	chunks:  flate-compressed columnar payloads, one per chunkInsts
//	         instructions (the last chunk may be short)
//	index:   count i64 | numChunks u32 |
//	         numChunks × { off u64 | clen u32 | n u32 | crc u32 } |
//	         crc u32 over the preceding index bytes
//	footer:  indexOff u64 | indexLen u32 | magic "XDCM"
//
// Every integer is little-endian. A chunk's raw payload is the
// Recorded column layout packed back to back — pc[8n] | extra[8n] |
// dep1[4n] | dep2[4n] | meta[n], 25 bytes per instruction, taken flag
// in meta's high bit — so decoding a chunk is the same column walk
// Replayer.Next performs, and replay is bit-identical to an in-memory
// Recorded replay by construction. Each chunk's CRC-32C is computed
// over the raw (decompressed) payload: it proves end-to-end integrity
// through the compressor, not just media integrity of the stored
// bytes. The index at the tail makes the file seekable: a reader maps
// any instruction position to chunk position/chunkInsts without
// touching the payloads before it.
const (
	chunkedMagic       = "MCDC"
	chunkedFooterMagic = "XDCM"
	chunkedVersion     = 2

	// DefaultChunkInstructions is the writer's default chunk size:
	// 64Ki instructions, 1.6 MiB raw per chunk.
	DefaultChunkInstructions = 1 << 16

	// maxChunkInstructions bounds the decoded size of one chunk
	// (25 B/inst, 32 MiB) so a corrupt or hostile index cannot demand
	// an absurd allocation before validation can reject it.
	maxChunkInstructions = 1 << 20

	// DefaultChunkWindow is how many decoded chunks a Chunked keeps
	// resident at once when the caller does not choose.
	DefaultChunkWindow = 4

	// instBytes is the packed size of one instruction, shared with the
	// Recorded column layout.
	instBytes = 25

	chunkedHeaderMin = 4 + 4 + 4 + 2 // magic + version + chunkInsts + nameLen
	chunkedFooterLen = 8 + 4 + 4     // indexOff + indexLen + magic
	chunkedIndexMin  = 8 + 4 + 4     // count + numChunks + index crc
	chunkEntryLen    = 8 + 4 + 4 + 4 // off + clen + n + crc
)

// chunkedCRC is the table every chunk and index checksum uses
// (CRC-32C, hardware-accelerated on the platforms that matter).
var chunkedCRC = crc32.MakeTable(crc32.Castagnoli)

// checksumChunk is the one checksum routine for chunk payloads and the
// index body.
func checksumChunk(b []byte) uint32 { return crc32.Checksum(b, chunkedCRC) }

// WriteChunked serializes count instructions of src to w in the
// chunked v2 format and returns the number of bytes written. A
// chunkInsts of 0 selects DefaultChunkInstructions. The instruction
// count must be known up front (a Generator knows its Remaining); a
// source that runs dry before count is an error.
func WriteChunked(w io.Writer, src Source, count int64, chunkInsts int) (int64, error) {
	if count < 0 {
		return 0, fmt.Errorf("trace: negative instruction count %d", count)
	}
	if chunkInsts == 0 {
		chunkInsts = DefaultChunkInstructions
	}
	if chunkInsts < 1 || chunkInsts > maxChunkInstructions {
		return 0, fmt.Errorf("trace: chunk size %d instructions outside [1, %d]", chunkInsts, maxChunkInstructions)
	}
	name := src.Name()
	if len(name) > 1<<16-1 {
		return 0, fmt.Errorf("trace: name too long")
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [chunkedHeaderMin]byte
	copy(hdr[0:], chunkedMagic)
	binary.LittleEndian.PutUint32(hdr[4:], chunkedVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(chunkInsts))
	binary.LittleEndian.PutUint16(hdr[12:], uint16(len(name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return 0, err
	}
	written := int64(chunkedHeaderMin + len(name))

	raw := make([]byte, 0, chunkInsts*instBytes)
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		return written, err
	}
	var idx []chunkInfo
	for start := int64(0); start < count; start += int64(chunkInsts) {
		n := count - start
		if n > int64(chunkInsts) {
			n = int64(chunkInsts)
		}
		raw = raw[:n*instBytes]
		if err := packChunk(raw, src, n); err != nil {
			return written, fmt.Errorf("trace: at instruction %d of %d: %w", start, count, err)
		}
		comp.Reset()
		fw.Reset(&comp)
		if _, err := fw.Write(raw); err != nil {
			return written, err
		}
		if err := fw.Close(); err != nil {
			return written, err
		}
		if _, err := bw.Write(comp.Bytes()); err != nil {
			return written, err
		}
		idx = append(idx, chunkInfo{
			off:  written,
			clen: uint32(comp.Len()),
			n:    uint32(n),
			crc:  checksumChunk(raw),
		})
		written += int64(comp.Len())
	}

	index := make([]byte, 0, chunkedIndexMin+len(idx)*chunkEntryLen)
	index = binary.LittleEndian.AppendUint64(index, uint64(count))
	index = binary.LittleEndian.AppendUint32(index, uint32(len(idx)))
	for _, e := range idx {
		index = binary.LittleEndian.AppendUint64(index, uint64(e.off))
		index = binary.LittleEndian.AppendUint32(index, e.clen)
		index = binary.LittleEndian.AppendUint32(index, e.n)
		index = binary.LittleEndian.AppendUint32(index, e.crc)
	}
	index = binary.LittleEndian.AppendUint32(index, checksumChunk(index))
	if _, err := bw.Write(index); err != nil {
		return written, err
	}

	var foot [chunkedFooterLen]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(written))
	binary.LittleEndian.PutUint32(foot[8:], uint32(len(index)))
	copy(foot[12:], chunkedFooterMagic)
	if _, err := bw.Write(foot[:]); err != nil {
		return written, err
	}
	written += int64(len(index) + chunkedFooterLen)
	return written, bw.Flush()
}

// packChunk encodes n instructions of src into raw (already sized to
// n*instBytes) in the columnar chunk layout.
func packChunk(raw []byte, src Source, n int64) error {
	pc, extra := raw[0:], raw[8*n:]
	dep1, dep2 := raw[16*n:], raw[20*n:]
	meta := raw[24*n:]
	for j := int64(0); j < n; j++ {
		in, ok := src.Next()
		if !ok {
			return fmt.Errorf("source ran dry")
		}
		m := uint8(in.Class)
		var ex uint64
		switch in.Class {
		case isa.Branch:
			ex = in.Target
			if in.Taken {
				m |= takenBit
			}
		case isa.Load, isa.Store:
			ex = in.Addr
		}
		binary.LittleEndian.PutUint64(pc[8*j:], in.PC)
		binary.LittleEndian.PutUint64(extra[8*j:], ex)
		binary.LittleEndian.PutUint32(dep1[4*j:], in.Dep1)
		binary.LittleEndian.PutUint32(dep2[4*j:], in.Dep2)
		meta[j] = m
	}
	return nil
}

// chunkInfo is one index entry: where a chunk's compressed bytes live,
// how many instructions it packs, and the CRC of its raw payload.
type chunkInfo struct {
	off  int64
	clen uint32
	n    uint32
	crc  uint32
}

// Chunked is an open chunked-format trace. It owns a bounded window
// of decoded chunks shared by every replay cursor, so peak memory is
// O(window × chunk) — independent of trace length. Any number of
// cursors may stream concurrently; the window cache is mutex-guarded.
type Chunked struct {
	r          io.ReaderAt
	name       string
	count      int64
	chunkInsts int
	size       int64
	idx        []chunkInfo
	window     int

	mu       sync.Mutex
	chunks   map[int][]byte // decoded raw payloads by chunk number
	order    []int          // LRU order, least recently used first
	resident int64
	peak     int64
	loads    int64 // cache misses (chunk decodes)
}

// OpenChunked validates a chunked trace of the given size and prepares
// to stream it. The reader must stay valid for the Chunked's lifetime
// (use OpenChunkedFile for the file-backed convenience form). window
// caps how many decoded chunks stay resident (0 selects
// DefaultChunkWindow; the floor is 1). Every header, footer, and index
// inconsistency is a clean error — the per-chunk payload CRCs are
// checked lazily as chunks are decoded.
func OpenChunked(r io.ReaderAt, size int64, window int) (*Chunked, error) {
	if window == 0 {
		window = DefaultChunkWindow
	}
	if window < 1 {
		window = 1
	}
	if size < int64(chunkedHeaderMin+chunkedIndexMin+chunkedFooterLen) {
		return nil, fmt.Errorf("trace: chunked file too short (%d bytes)", size)
	}

	var hdr [chunkedHeaderMin]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading chunked header: %w", err)
	}
	if string(hdr[0:4]) != chunkedMagic {
		return nil, fmt.Errorf("trace: bad magic %q, want %q (the chunked v2 format)", hdr[0:4], chunkedMagic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != chunkedVersion {
		return nil, fmt.Errorf("trace: unsupported chunked version %d", v)
	}
	chunkInsts := int(binary.LittleEndian.Uint32(hdr[8:]))
	if chunkInsts < 1 || chunkInsts > maxChunkInstructions {
		return nil, fmt.Errorf("trace: chunk size %d instructions outside [1, %d]", chunkInsts, maxChunkInstructions)
	}
	nameLen := int(binary.LittleEndian.Uint16(hdr[12:]))
	headerLen := int64(chunkedHeaderMin + nameLen)
	if headerLen > size {
		return nil, fmt.Errorf("trace: truncated chunked header")
	}
	nameBuf := make([]byte, nameLen)
	if _, err := r.ReadAt(nameBuf, chunkedHeaderMin); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}

	var foot [chunkedFooterLen]byte
	if _, err := r.ReadAt(foot[:], size-chunkedFooterLen); err != nil {
		return nil, fmt.Errorf("trace: reading footer: %w", err)
	}
	if string(foot[12:16]) != chunkedFooterMagic {
		return nil, fmt.Errorf("trace: bad footer magic %q (truncated file?)", foot[12:16])
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	indexLen := int64(binary.LittleEndian.Uint32(foot[8:]))
	if indexLen < chunkedIndexMin || indexOff < headerLen || indexOff+indexLen != size-chunkedFooterLen {
		return nil, fmt.Errorf("trace: index bounds [%d, +%d] disagree with file size %d", indexOff, indexLen, size)
	}
	index := make([]byte, indexLen)
	if _, err := r.ReadAt(index, indexOff); err != nil {
		return nil, fmt.Errorf("trace: reading index: %w", err)
	}
	body, sum := index[:indexLen-4], binary.LittleEndian.Uint32(index[indexLen-4:])
	if checksumChunk(body) != sum {
		return nil, fmt.Errorf("trace: index checksum mismatch (corrupt index)")
	}
	count := int64(binary.LittleEndian.Uint64(body[0:]))
	numChunks := int64(binary.LittleEndian.Uint32(body[8:]))
	if count < 0 {
		return nil, fmt.Errorf("trace: negative instruction count %d", count)
	}
	if int64(len(body)-12) != numChunks*chunkEntryLen {
		return nil, fmt.Errorf("trace: index declares %d chunks but holds %d entry bytes", numChunks, len(body)-12)
	}

	c := &Chunked{
		r:          r,
		name:       string(nameBuf),
		count:      count,
		chunkInsts: chunkInsts,
		size:       size,
		idx:        make([]chunkInfo, numChunks),
		window:     window,
		chunks:     make(map[int][]byte, window),
	}
	var total int64
	prevEnd := headerLen
	for k := range c.idx {
		ent := body[12+k*chunkEntryLen:]
		e := chunkInfo{
			off:  int64(binary.LittleEndian.Uint64(ent[0:])),
			clen: binary.LittleEndian.Uint32(ent[8:]),
			n:    binary.LittleEndian.Uint32(ent[12:]),
			crc:  binary.LittleEndian.Uint32(ent[16:]),
		}
		if e.n < 1 || int(e.n) > chunkInsts {
			return nil, fmt.Errorf("trace: chunk %d declares %d instructions (chunk size %d)", k, e.n, chunkInsts)
		}
		if k < len(c.idx)-1 && int(e.n) != chunkInsts {
			return nil, fmt.Errorf("trace: non-final chunk %d is short (%d of %d instructions)", k, e.n, chunkInsts)
		}
		if e.clen < 1 || e.off < prevEnd || e.off+int64(e.clen) > indexOff {
			return nil, fmt.Errorf("trace: chunk %d bytes [%d, +%d] out of bounds", k, e.off, e.clen)
		}
		prevEnd = e.off + int64(e.clen)
		total += int64(e.n)
		c.idx[k] = e
	}
	if total != count {
		return nil, fmt.Errorf("trace: chunks hold %d instructions, index declares %d", total, count)
	}
	return c, nil
}

// Name returns the workload name recorded in the header.
func (c *Chunked) Name() string { return c.name }

// Count returns the total instruction count.
func (c *Chunked) Count() int64 { return c.count }

// Chunks returns the number of chunks in the file.
func (c *Chunked) Chunks() int { return len(c.idx) }

// ChunkInstructions returns the per-chunk instruction capacity.
func (c *Chunked) ChunkInstructions() int { return c.chunkInsts }

// CompressedBytes returns the on-disk size of the trace.
func (c *Chunked) CompressedBytes() int64 { return c.size }

// Window returns the resident-chunk cap this Chunked was opened with.
func (c *Chunked) Window() int { return c.window }

// WindowBytes returns the window's raw-payload memory bound:
// window × chunk payload size. PeakResidentBytes never exceeds it.
func (c *Chunked) WindowBytes() int64 {
	return int64(c.window) * int64(c.chunkInsts) * instBytes
}

// PeakResidentBytes reports the largest total of decoded chunk
// payloads held at any point so far — the number the bounded-memory
// contract is about. A cursor may briefly pin one evicted chunk on top
// of this while it crosses a boundary.
func (c *Chunked) PeakResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// Loads reports how many chunk decodes (window-cache misses) have
// happened — the replay-amplification figure: a perfectly shared
// sequential sweep loads each chunk once.
func (c *Chunked) Loads() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loads
}

// chunk returns chunk k's raw payload, decoding (and CRC-checking) it
// on a window miss and evicting the least recently used chunk past the
// window.
func (c *Chunked) chunk(k int) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if raw, ok := c.chunks[k]; ok {
		c.touch(k)
		return raw, nil
	}
	e := c.idx[k]
	rawLen := int(e.n) * instBytes
	// Evicted buffers are never recycled: a cursor may still be
	// decoding out of one after it leaves the window, so the buffer's
	// lifetime ends when the last cursor moves on, not here.
	raw := make([]byte, rawLen)
	fr := flate.NewReader(io.NewSectionReader(c.r, e.off, int64(e.clen)))
	if _, err := io.ReadFull(fr, raw); err != nil {
		return nil, fmt.Errorf("trace: %q chunk %d: inflating: %w", c.name, k, err)
	}
	var over [1]byte
	if n, _ := fr.Read(over[:]); n != 0 {
		return nil, fmt.Errorf("trace: %q chunk %d: payload longer than declared", c.name, k)
	}
	if checksumChunk(raw) != e.crc {
		return nil, fmt.Errorf("trace: %q chunk %d: checksum mismatch (corrupt chunk)", c.name, k)
	}
	c.loads++
	// Evict down to window-1 before inserting so resident (and the
	// peak it drives) never exceeds the window bound.
	for len(c.order) >= c.window {
		ev := c.order[0]
		c.order = c.order[1:]
		c.resident -= int64(len(c.chunks[ev]))
		delete(c.chunks, ev)
	}
	c.chunks[k] = raw
	c.order = append(c.order, k)
	c.resident += int64(rawLen)
	if c.resident > c.peak {
		c.peak = c.resident
	}
	return raw, nil
}

// touch moves chunk k to the most-recently-used end of the order.
func (c *Chunked) touch(k int) {
	for i, v := range c.order {
		if v == k {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = k
			return
		}
	}
}

// VerifyChunks decodes every chunk once (through the window, so memory
// stays bounded) and returns the first payload error: the full
// integrity pass tracegen and the corpus verifier run.
func (c *Chunked) VerifyChunks() error {
	for k := range c.idx {
		if _, err := c.chunk(k); err != nil {
			return err
		}
	}
	return nil
}

// Replay returns a fresh streaming cursor. Cursors are independent and
// share the chunk window; a single cursor is not safe for concurrent
// use — give each consumer its own.
func (c *Chunked) Replay() *ChunkedReplayer {
	return &ChunkedReplayer{c: c}
}

// ChunkedReplayer streams a chunked trace as a Source. Next decodes
// straight out of the pinned chunk's columns — no per-instruction
// allocation — and crosses chunk boundaries through the shared window.
// A payload error (truncation, CRC mismatch) ends the stream; Err
// distinguishes it from clean end-of-trace.
type ChunkedReplayer struct {
	c    *Chunked
	i    int64
	raw  []byte // pinned current chunk payload
	base int64  // absolute index of the pinned chunk's first instruction
	n    int64  // instructions in the pinned chunk
	err  error
}

// Name implements Source.
func (p *ChunkedReplayer) Name() string { return p.c.name }

// Remaining returns how many instructions the cursor will still emit.
func (p *ChunkedReplayer) Remaining() int64 { return p.c.count - p.i }

// Err returns the first stream error encountered by Next.
func (p *ChunkedReplayer) Err() error { return p.err }

// Next implements Source.
func (p *ChunkedReplayer) Next() (isa.Inst, bool) {
	if p.err != nil || p.i >= p.c.count {
		return isa.Inst{}, false
	}
	j := p.i - p.base
	if p.raw == nil || j >= p.n {
		k := int(p.i / int64(p.c.chunkInsts))
		raw, err := p.c.chunk(k)
		if err != nil {
			p.err = err
			return isa.Inst{}, false
		}
		p.raw = raw
		p.base = int64(k) * int64(p.c.chunkInsts)
		p.n = int64(p.c.idx[k].n)
		j = p.i - p.base
	}
	raw, n := p.raw, p.n
	m := raw[24*n+j]
	in := isa.Inst{
		PC:    binary.LittleEndian.Uint64(raw[8*j:]),
		Class: isa.Class(m &^ takenBit),
		Dep1:  binary.LittleEndian.Uint32(raw[16*n+4*j:]),
		Dep2:  binary.LittleEndian.Uint32(raw[20*n+4*j:]),
	}
	if !in.Class.Valid() {
		// The CRC covers whatever bytes were written, so a hand-built
		// (or fuzzed) file can carry a valid checksum over an invalid
		// class; it must surface as a stream error, not a downstream
		// panic.
		p.err = fmt.Errorf("trace: %q: invalid class %d at instruction %d", p.c.name, uint8(in.Class), p.i)
		return isa.Inst{}, false
	}
	p.i++
	switch in.Class {
	case isa.Branch:
		in.Target = binary.LittleEndian.Uint64(raw[8*n+8*j:])
		in.Taken = m&takenBit != 0
	case isa.Load, isa.Store:
		in.Addr = binary.LittleEndian.Uint64(raw[8*n+8*j:])
	}
	return in, true
}

var _ Source = (*ChunkedReplayer)(nil)

// ChunkedFile is a Chunked backed by an open file.
type ChunkedFile struct {
	*Chunked
	f *os.File
}

// OpenChunkedFile opens and validates a chunked trace file. The caller
// owns the Close.
func OpenChunkedFile(path string, window int) (*ChunkedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	c, err := OpenChunked(f, st.Size(), window)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ChunkedFile{Chunked: c, f: f}, nil
}

// Close releases the underlying file.
func (cf *ChunkedFile) Close() error { return cf.f.Close() }

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
	"unsafe"

	"mcddvfs/internal/isa"
	"mcddvfs/internal/layout"
)

// Chunked trace format, version 3 — the repository's one trace file
// format, for single traces and corpus members alike. A file is
// replayable with memory bounded by the chunk window regardless of
// trace length:
//
//	header:  magic "MCDC" | version u32 | chunkInsts u32 |
//	         nameLen u16 | name
//	chunks:  flate-compressed instruction-codec payloads, one per
//	         chunkInsts instructions (the last chunk may be short)
//	index:   count i64 | numChunks u32 |
//	         numChunks × { off u64 | clen u32 | n u32 | rawLen u32 |
//	         crc u32 } |
//	         crc u32 over the preceding index bytes
//	footer:  indexOff u64 | indexLen u32 | magic "XDCM"
//
// Every integer is little-endian. A chunk's raw payload is its n
// instructions in the instruction codec (codec.go), the layout a
// Recorded holds in memory, encoded from the chunk's own first
// instruction, so a chunk decodes without the chunks before it and
// replay decodes through the same instRun a Recorded replay does. The
// index carries each chunk's decoded length (rawLen), so OpenChunked
// bounds every chunk's allocation before anything is inflated. Each
// chunk's CRC-32C is computed over the raw (decompressed) payload: it
// proves end-to-end integrity through the compressor, not just media
// integrity of the stored bytes. The index at the tail makes the file
// seekable: a reader maps any instruction position to chunk
// position/chunkInsts without touching the payloads before it.
// Version 2 files, whose payloads were 25-byte-per-instruction
// columns, are refused.
const (
	chunkedMagic       = "MCDC"
	chunkedFooterMagic = "XDCM"

	// ChunkedVersion is the chunked format version WriteChunked writes
	// and the only one OpenChunked and corpus manifests accept.
	ChunkedVersion = 3

	// DefaultChunkInstructions is the writer's default chunk size:
	// 64Ki instructions, 200–270 KiB raw per chunk for the bundled
	// profiles.
	DefaultChunkInstructions = 1 << 16

	// maxChunkInstructions bounds the instructions in one chunk, and
	// with maxInstBytes its decoded size (31 MiB), so a corrupt or
	// hostile index cannot demand an absurd allocation before
	// validation can reject it.
	maxChunkInstructions = 1 << 20

	// DefaultChunkWindow is how many decoded chunks a Chunked keeps
	// resident at once when the caller does not choose.
	DefaultChunkWindow = 4

	chunkedHeaderMin = 4 + 4 + 4 + 2     // magic + version + chunkInsts + nameLen
	chunkedFooterLen = 8 + 4 + 4         // indexOff + indexLen + magic
	chunkedIndexMin  = 8 + 4 + 4         // count + numChunks + index crc
	chunkEntryLen    = 8 + 4 + 4 + 4 + 4 // off + clen + n + rawLen + crc
)

// chunkedCRC is the table every chunk and index checksum uses
// (CRC-32C, hardware-accelerated on the platforms that matter).
var chunkedCRC = crc32.MakeTable(crc32.Castagnoli)

// checksumChunk is the one checksum routine for chunk payloads and the
// index body.
func checksumChunk(b []byte) uint32 { return crc32.Checksum(b, chunkedCRC) }

// WriteChunked serializes count instructions of src to w in the
// chunked format and returns the number of bytes written. A
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
	binary.LittleEndian.PutUint32(hdr[4:], ChunkedVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(chunkInsts))
	binary.LittleEndian.PutUint16(hdr[12:], uint16(len(name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return 0, err
	}
	written := int64(chunkedHeaderMin + len(name))

	var raw []byte
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
		if raw, err = encodeChunk(raw[:0], src, n); err != nil {
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
			off:    written,
			clen:   uint32(comp.Len()),
			n:      uint32(n),
			rawLen: uint32(len(raw)),
			crc:    checksumChunk(raw),
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
		index = binary.LittleEndian.AppendUint32(index, e.rawLen)
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

// encodeChunk appends n instructions of src to raw in the instruction
// codec, starting from a fresh encoder so the chunk decodes on its own.
func encodeChunk(raw []byte, src Source, n int64) ([]byte, error) {
	var enc instEncoder
	for j := int64(0); j < n; j++ {
		in, ok := src.Next()
		if !ok {
			return raw, fmt.Errorf("source ran dry")
		}
		raw = enc.append(raw, in)
	}
	return raw, nil
}

// chunkInfo is one index entry: where a chunk's compressed bytes live,
// how many instructions it packs, its decoded length, and the CRC of
// its raw payload.
type chunkInfo struct {
	off    int64
	clen   uint32
	n      uint32
	rawLen uint32
	crc    uint32
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
	maxRaw     int64 // largest decoded chunk

	mu       sync.Mutex
	chunks   map[int][]byte // decoded raw payloads by chunk number
	order    []int          // LRU order, least recently used first
	resident int64
	peak     int64
	loads    int64 // cache misses (chunk decodes)
	// inflate decodes every chunk load, reset onto each chunk's
	// compressed bytes through buf so that a load reuses the
	// decoder's tables and window instead of building new ones (nil
	// until the first load).
	inflate io.Reader
	sec     io.SectionReader
	buf     bufio.Reader
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
		return nil, fmt.Errorf("trace: bad magic %q, want %q (the chunked v%d format)", hdr[0:4], chunkedMagic, ChunkedVersion)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != ChunkedVersion {
		return nil, fmt.Errorf("trace: chunked version %d, want %d (re-emit the trace with this build)", v, ChunkedVersion)
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
			off:    int64(binary.LittleEndian.Uint64(ent[0:])),
			clen:   binary.LittleEndian.Uint32(ent[8:]),
			n:      binary.LittleEndian.Uint32(ent[12:]),
			rawLen: binary.LittleEndian.Uint32(ent[16:]),
			crc:    binary.LittleEndian.Uint32(ent[20:]),
		}
		if e.n < 1 || int(e.n) > chunkInsts {
			return nil, fmt.Errorf("trace: chunk %d declares %d instructions (chunk size %d)", k, e.n, chunkInsts)
		}
		if k < len(c.idx)-1 && int(e.n) != chunkInsts {
			return nil, fmt.Errorf("trace: non-final chunk %d is short (%d of %d instructions)", k, e.n, chunkInsts)
		}
		if raw := int64(e.rawLen); raw < int64(e.n)*minInstBytes || raw > int64(e.n)*maxInstBytes {
			return nil, fmt.Errorf("trace: chunk %d declares %d decoded bytes for %d instructions", k, e.rawLen, e.n)
		}
		if e.clen < 1 || e.off < prevEnd || e.off+int64(e.clen) > indexOff {
			return nil, fmt.Errorf("trace: chunk %d bytes [%d, +%d] out of bounds", k, e.off, e.clen)
		}
		prevEnd = e.off + int64(e.clen)
		total += int64(e.n)
		c.maxRaw = max(c.maxRaw, int64(e.rawLen))
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

// WindowBytes returns the window's raw-payload memory bound:
// window × the largest decoded chunk. PeakResidentBytes never exceeds
// it.
func (c *Chunked) WindowBytes() int64 {
	return int64(c.window) * c.maxRaw
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
	rawLen := int(e.rawLen)
	// Evicted buffers are never recycled: a cursor may still be
	// decoding out of one after it leaves the window, so the buffer's
	// lifetime ends when the last cursor moves on, not here.
	raw := make([]byte, rawLen)
	fr, err := c.decoder(e)
	if err != nil {
		return nil, fmt.Errorf("trace: %q chunk %d: inflating: %w", c.name, k, err)
	}
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

// decoder returns the chunk decoder positioned at e's compressed
// bytes. The caller holds c.mu.
func (c *Chunked) decoder(e chunkInfo) (io.Reader, error) {
	c.sec = *io.NewSectionReader(c.r, e.off, int64(e.clen))
	c.buf.Reset(&c.sec)
	if c.inflate == nil {
		c.inflate = flate.NewReader(&c.buf)
		return c.inflate, nil
	}
	return c.inflate, c.inflate.(flate.Resetter).Reset(&c.buf, nil)
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
	return &ChunkedReplayer{chunkedReplayerState: chunkedReplayerState{c: c}}
}

// ChunkedReplayer streams a chunked trace as a Source. Next decodes
// straight out of the pinned chunk through the same instRun a Recorded
// replay uses — no per-instruction allocation — and crosses chunk
// boundaries through the shared window. A payload error (truncation,
// CRC mismatch, an undecodable instruction) ends the stream; Err
// distinguishes it from clean end-of-trace.
type ChunkedReplayer struct {
	chunkedReplayerState
	// Whole layout.Blocks: each core has its own, advanced every fetch.
	_ [(layout.Block - unsafe.Sizeof(chunkedReplayerState{})%layout.Block) % layout.Block]byte
}

// chunkedReplayerState is ChunkedReplayer's state.
type chunkedReplayerState struct {
	c   *Chunked
	i   int64   // absolute index of the next instruction
	run instRun // decoder over the pinned chunk's payload
	err error
}

// Name implements Source.
func (p *ChunkedReplayer) Name() string { return p.c.name }

// Err returns the first stream error encountered by Next.
func (p *ChunkedReplayer) Err() error { return p.err }

// Next implements Source.
func (p *ChunkedReplayer) Next() (isa.Inst, bool) {
	if p.err != nil || p.i >= p.c.count {
		return isa.Inst{}, false
	}
	if p.run.left == 0 {
		k := int(p.i / int64(p.c.chunkInsts))
		raw, err := p.c.chunk(k)
		if err != nil {
			p.err = err
			return isa.Inst{}, false
		}
		p.run = instRun{buf: raw, left: int64(p.c.idx[k].n)}
	}
	in, ok := p.run.next()
	if !ok {
		p.err = fmt.Errorf("trace: %q chunk %d: %w at instruction %d", p.c.name, p.i/int64(p.c.chunkInsts), p.run.err, p.i)
		return isa.Inst{}, false
	}
	p.i++
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

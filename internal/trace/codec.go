package trace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mcddvfs/internal/isa"
)

// The instruction codec is the one byte layout of a recorded stream:
// a Recorded holds it in memory and every chunk of a chunked trace
// file carries it as its decoded payload. A run of instructions is
// encoded back to back, each as
//
//	meta     u8: bits 0..3 opcode, bit 4 PC jump, bit 5 Dep2 present,
//	             bits 6..7 payload length code
//	[pc      zigzag uvarint]  PC minus the predicted PC, on a PC jump
//	dep1     uvarint
//	[dep2    uvarint]         Dep2 ≠ 0 only
//	[payload zigzag]          loads and stores: Addr minus the previous
//	                          load or store's Addr; branches: Target
//	                          minus PC
//
// The opcode is the isa.Class, except that 11 is a taken branch (a
// not-taken one is isa.Branch) and 12..15 are invalid. The payload is
// little-endian in 1, 2 or 3 bytes for length codes 0..2, and a
// uvarint for code 3; the fixed widths let the decoder read it with
// one masked load instead of a branch per byte. The predicted PC is
// the previous instruction's Target when it was a taken branch and its
// PC+4 otherwise, so straight-line code and taken branches cost no PC
// bytes. A run starts from a zero PC and a zero address, so every run
// (a whole Recorded, or one chunk) decodes from its own first
// instruction. Differences wrap modulo 2^64, so every PC, Target and
// Addr round-trips exactly. The fields a class does not carry (Taken
// and Target off branches, Addr off loads and stores) are not stored
// and replay as zero.
const (
	opMask      = 0x0F
	opTaken     = 11 // a taken branch
	opInvalid   = 15 // what the encoder writes for an undefined class
	pcJumpBit   = 0x10
	dep2Bit     = 0x20
	lenShift    = 6
	lenVarint   = 3 // payload length code of a uvarint payload
	maxFixedLen = 3 // widest fixed-width payload, in bytes

	// minInstBytes and maxInstBytes bound one encoded instruction:
	// a meta byte and a one-byte Dep1 at least; at most a meta byte,
	// two 64-bit varints and two 32-bit ones.
	minInstBytes = 2
	maxInstBytes = 1 + 2*binary.MaxVarintLen64 + 2*binary.MaxVarintLen32
)

// Opcode sets, as bit masks over opcodes: the decoder tests them with
// a shift instead of a branch.
const (
	memOps     = 1<<isa.Load | 1<<isa.Store
	branchOps  = 1<<isa.Branch | 1<<opTaken
	payloadOps = memOps | branchOps
)

// opClass maps an opcode to its class; the invalid opcodes map to
// isa.NumClasses.
var opClass [16]isa.Class

func init() {
	for op := range opClass {
		opClass[op] = isa.Class(min(op, isa.NumClasses))
	}
	opClass[opTaken] = isa.Branch
}

// AdmitBytesPerInst is the per-instruction size to assume when
// budgeting memory for a stream before it is recorded. Every bundled
// profile records at 3.1–4.1 bytes per instruction (TestRecordedDensity
// holds each at or below 6 at 5k, 100k and 500k instructions). The
// codec's worst case, maxInstBytes, needs far jumps and far addresses
// on every instruction; a custom profile with a far larger working set
// than the bundled ones can pass this figure, so a budget that admits
// by it must still charge the recording's real Bytes once it exists.
const AdmitBytesPerInst = 8

// instEncoder appends instructions to a run, carrying the PC and
// address predictions from one instruction to the next.
type instEncoder struct {
	pc   uint64 // predicted PC of the next instruction
	addr uint64 // Addr of the previous load or store
}

func (e *instEncoder) append(b []byte, in isa.Inst) []byte {
	var rec [maxInstBytes]byte
	m := byte(in.Class)
	if !in.Class.Valid() {
		m = opInvalid
	}
	taken := in.Class == isa.Branch && in.Taken
	if taken {
		m = opTaken
	}
	n := 1
	if in.PC != e.pc {
		m |= pcJumpBit
		n += binary.PutUvarint(rec[n:], zigzag(in.PC-e.pc))
	}
	n += binary.PutUvarint(rec[n:], uint64(in.Dep1))
	if in.Dep2 != 0 {
		m |= dep2Bit
		n += binary.PutUvarint(rec[n:], uint64(in.Dep2))
	}
	var z uint64
	switch in.Class {
	case isa.Branch:
		z = zigzag(in.Target - in.PC)
	case isa.Load, isa.Store:
		z = zigzag(in.Addr - e.addr)
		e.addr = in.Addr
	}
	if payloadOps>>(m&opMask)&1 != 0 {
		w := 1 // fixed payload width, or lenVarint+1
		for w <= maxFixedLen && z>>(8*w) != 0 {
			w++
		}
		m |= byte(w-1) << lenShift
		if w > maxFixedLen {
			n += binary.PutUvarint(rec[n:], z)
		} else {
			binary.LittleEndian.PutUint32(rec[n:], uint32(z))
			n += w
		}
	}
	rec[0] = m
	e.pc = in.PC + 4
	if taken {
		e.pc = in.Target
	}
	return append(b, rec[:n]...)
}

// zigzag maps a wrapped difference to an unsigned varint payload that
// is small for differences near zero in either direction.
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// Stream errors a run reports. Every read is bounds-checked, so a
// damaged or hostile payload ends its stream with one of these rather
// than a panic.
var (
	errTruncated    = errors.New("truncated instruction")
	errVarint       = errors.New("varint overflows its field")
	errTrailing     = errors.New("trailing bytes after the last instruction")
	errInvalidClass = errors.New("invalid class")
)

// instRun decodes a counted run of encoded instructions: a whole
// Recorded, or one chunk of a chunked trace. Replayer and
// ChunkedReplayer both decode through it.
type instRun struct {
	buf  []byte
	off  int
	left int64  // instructions still to decode
	pc   uint64 // predicted PC of the next instruction
	addr uint64 // Addr of the previous load or store
	err  error  // first decode error; ends the run
}

// next decodes the run's next instruction; ok is false at the end of
// the run or on a decode error, which err then holds. The last
// instruction must end exactly at the end of the buffer. next runs
// once per simulated instruction, so the common case avoids branches
// on the data: a Dep2 and a payload are read whether or not the
// instruction has them and masked away when it does not, and only
// multi-byte varints, PC jumps and a run's last few bytes take the
// slow paths.
func (r *instRun) next() (in isa.Inst, ok bool) {
	if r.left <= 0 {
		return isa.Inst{}, false
	}
	buf, off := r.buf, r.off
	if off >= len(buf) {
		return r.fail(errTruncated)
	}
	m := buf[off]
	off++
	op := m & opMask
	in.Class = opClass[op]
	if !in.Class.Valid() {
		return r.fail(invalidClass(op))
	}
	var u uint64
	in.PC = r.pc
	if m&pcJumpBit != 0 {
		if u, off = uvarintAt(buf, off); off < 0 {
			return r.fail(varintErr(off))
		}
		in.PC += unzigzag(u)
	}
	if off < len(buf) && buf[off] < 0x80 {
		u = uint64(buf[off])
		off++
	} else if u, off = uvarintAt(buf, off); off < 0 || u>>32 != 0 {
		return r.fail(varintErr(off))
	}
	in.Dep1 = uint32(u)

	has2 := uint32(m&dep2Bit) / dep2Bit
	var b uint32
	if off < len(buf) {
		b = uint32(buf[off]) & -has2
	} else if has2 != 0 {
		return r.fail(errTruncated)
	}
	if b < 0x80 {
		in.Dep2 = b
		off += int(has2)
	} else {
		if u, off = uvarintAt(buf, off); off < 0 || u>>32 != 0 {
			return r.fail(varintErr(off))
		}
		in.Dep2 = uint32(u)
	}

	n := int(payloadOps>>op&1) * (int(m>>lenShift) + 1)
	switch {
	case n <= maxFixedLen && off+4 <= len(buf):
		u = uint64(binary.LittleEndian.Uint32(buf[off:])) & (1<<(8*n) - 1)
		off += n
	case n <= maxFixedLen:
		if off+n > len(buf) {
			return r.fail(errTruncated)
		}
		u = 0
		for i := n - 1; i >= 0; i-- {
			u = u<<8 | uint64(buf[off+i])
		}
		off += n
	default:
		if u, off = uvarintAt(buf, off); off < 0 {
			return r.fail(varintErr(off))
		}
	}
	d := unzigzag(u)
	branch, mem := -uint64(branchOps>>op&1), -uint64(memOps>>op&1)
	in.Target = (in.PC + d) & branch
	r.addr += d & mem
	in.Addr = r.addr & mem
	in.Taken = op == opTaken
	r.pc = in.PC + 4
	if in.Taken {
		r.pc = in.Target
	}

	r.off = off
	r.left--
	if r.left == 0 && off != len(buf) {
		return r.fail(errTrailing)
	}
	return in, true
}

// fail ends the run with err.
func (r *instRun) fail(err error) (isa.Inst, bool) {
	r.err = err
	r.left = 0
	return isa.Inst{}, false
}

// uvarintAt reads a uvarint at buf[off:] and returns it with the
// offset past it; the offset is -1 when buf ends first and -2 when the
// value overflows 64 bits.
func uvarintAt(buf []byte, off int) (uint64, int) {
	if off >= len(buf) {
		return 0, -1
	}
	u, n := binary.Uvarint(buf[off:])
	switch {
	case n > 0:
		return u, off + n
	case n == 0:
		return 0, -1
	default:
		return 0, -2
	}
}

// invalidClass reports an opcode that names no class. It stays out of
// line so that next's frame carries no formatting.
//
//go:noinline
func invalidClass(op byte) error { return fmt.Errorf("%w (opcode %d)", errInvalidClass, op) }

// varintErr maps a failed varint read's offset to its stream error;
// any offset but -1 (from a 64-bit overflow, or a read past 32 bits
// into a 32-bit field) is an overflow.
func varintErr(off int) error {
	if off == -1 {
		return errTruncated
	}
	return errVarint
}

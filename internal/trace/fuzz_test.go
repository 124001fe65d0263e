package trace

import (
	"bytes"
	"math"
	"testing"

	"mcddvfs/internal/isa"
)

// FuzzChunked feeds arbitrary bytes to the trace file reader: it must
// refuse every malformed header, body and payload with a clean error,
// never a panic; a file it accepts replays its declared count of valid
// instructions to a clean end, as a Recorded always does.
func FuzzChunked(f *testing.F) {
	prof, _ := ByName("gzip")
	gen, _ := NewGenerator(prof, 1, 300)
	var buf bytes.Buffer
	if _, err := Write(&buf, gen, 300); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                         // truncated tail
	f.Add(valid[:len(valid)*2/3])                       // truncated body
	f.Add(append([]byte(nil), valid[len(valid)/4:]...)) // missing header
	f.Add([]byte("MCDCgarbageXDCM"))
	f.Add([]byte{})
	// Single flipped bytes in each region: header, payload, tail.
	for _, off := range []int{5, 40, len(valid) - 20} {
		b := append([]byte(nil), valid...)
		b[off] ^= 0xFF
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRecorded(bytes.NewReader(data))
		if err != nil {
			return
		}
		cur := rec.Replay()
		count := int64(0)
		for {
			in, ok := cur.Next()
			if !ok {
				break
			}
			if !in.Class.Valid() {
				t.Fatalf("replay produced invalid class %d", in.Class)
			}
			count++
		}
		if count != rec.Len() {
			t.Fatalf("replay ended at %d of %d instructions", count, rec.Len())
		}
	})
}

// FuzzRecordedRoundTrip builds adversarial instruction streams from
// fuzz bytes — dependency distances up to MaxUint32, PC jumps anywhere
// (0 and near MaxUint64 included), taken and not-taken branches with
// far targets, address deltas of ±2^63, every class — and asserts that
// both recorded paths return, field for field, what the retired
// column layout returned: Record→Replay, and Write→ReadRecorded→Replay.
func FuzzRecordedRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(isa.Branch), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0x80, 0x7F, 0xFE}, 9))
	// Every class under every mode, with deltas of every width: each
	// record carries exactly the operand bytes fuzzInsts takes for its
	// mode.
	var all []byte
	operands := []byte{0xA5, 0x5A, 0xFF, 0x00, 0x80, 0x01, 0x7F, 0xFE}
	for c := 0; c < isa.NumClasses; c++ {
		for mode := 0; mode < 128; mode++ {
			all = append(all, byte(c), byte(mode))
			all = append(all, operands[:[]int{0, 0, 1, 8}[mode&3]]...) // PC
			if mode&4 != 0 {
				all = append(all, operands...) // two 4-byte distances
			} else {
				all = append(all, operands[:2]...)
			}
			all = append(all, operands...)        // delta
			all = append(all, byte(c*128+mode)%8) // delta width
		}
	}
	f.Add(all)

	f.Fuzz(func(t *testing.T, data []byte) {
		want := fuzzInsts(data)
		rec := Record(&sliceSource{insts: want}, int64(len(want)))
		if rec.Len() != int64(len(want)) {
			t.Fatalf("recorded %d instructions, want %d", rec.Len(), len(want))
		}
		rep := rec.Replay()
		for i, w := range want {
			got, ok := rep.Next()
			if !ok || got != columnLayout(w) {
				t.Fatalf("Replay: instruction %d = %+v (ok=%v), want %+v", i, got, ok, columnLayout(w))
			}
		}
		if _, ok := rep.Next(); ok {
			t.Fatal("Replay: instruction past the recorded count")
		}

		var buf bytes.Buffer
		if _, err := Write(&buf, &sliceSource{insts: want}, int64(len(want))); err != nil {
			t.Fatal(err)
		}
		read, err := ReadRecorded(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rep = read.Replay()
		for i, w := range want {
			got, ok := rep.Next()
			if !ok || got != columnLayout(w) {
				t.Fatalf("file: instruction %d = %+v (ok=%v), want %+v", i, got, ok, columnLayout(w))
			}
		}
		if _, ok := rep.Next(); ok {
			t.Fatal("file: instruction past the written count")
		}
	})
}

// fuzzInsts decodes fuzz bytes into instructions. Each instruction
// takes a class byte, a mode byte and operand bytes; the mode picks
// where the PC goes (fall-through, 0, near MaxUint64, or anywhere),
// how wide the dependency distances are, whether the branch is taken,
// and whether the target and address deltas are ±2^63 or 1 to 8 bytes
// wide, forward or back.
func fuzzInsts(data []byte) []isa.Inst {
	var out []isa.Inst
	var pc, addr uint64
	take := func(n int) uint64 {
		var v uint64
		for i := 0; i < n && len(data) > 0; i++ {
			v |= uint64(data[0]) << (8 * i)
			data = data[1:]
		}
		return v
	}
	for len(data) >= 2 && len(out) < 4096 {
		in := isa.Inst{Class: isa.Class(data[0] % byte(isa.NumClasses))}
		mode := data[1]
		data = data[2:]
		switch mode & 3 {
		case 0:
			in.PC = pc
		case 1:
			in.PC = 0
		case 2:
			in.PC = math.MaxUint64 - take(1)
		case 3:
			in.PC = take(8)
		}
		if mode&4 != 0 {
			in.Dep1, in.Dep2 = uint32(take(4)), uint32(take(4))
		} else {
			in.Dep1, in.Dep2 = uint32(take(1)), uint32(take(1))
		}
		if mode&8 != 0 {
			in.Dep1 = math.MaxUint32
		}
		in.Taken = mode&16 != 0
		far := take(8) >> (8 * (take(1) % 8))
		if mode&32 != 0 {
			far = 1 << 63 // the widest wrapped difference
		}
		if mode&64 != 0 {
			far = -far
		}
		in.Target = in.PC + far
		in.Addr = addr + far
		if in.Class == isa.Load || in.Class == isa.Store {
			addr = in.Addr
		}
		pc = in.PC + 4
		if in.Class == isa.Branch && in.Taken {
			pc = in.Target
		}
		out = append(out, in)
	}
	return out
}

// columnLayout is what the retired struct-of-arrays Recorded returned
// for in: Taken and Target on branches only, Addr on loads and stores
// only.
func columnLayout(in isa.Inst) isa.Inst {
	out := isa.Inst{PC: in.PC, Class: in.Class, Dep1: in.Dep1, Dep2: in.Dep2}
	switch in.Class {
	case isa.Branch:
		out.Taken, out.Target = in.Taken, in.Target
	case isa.Load, isa.Store:
		out.Addr = in.Addr
	}
	return out
}

// sliceSource streams a fixed instruction slice.
type sliceSource struct {
	insts []isa.Inst
	i     int
}

func (s *sliceSource) Name() string { return "fuzz" }
func (s *sliceSource) Next() (isa.Inst, bool) {
	if s.i >= len(s.insts) {
		return isa.Inst{}, false
	}
	s.i++
	return s.insts[s.i-1], true
}

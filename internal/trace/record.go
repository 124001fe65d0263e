package trace

import (
	"fmt"

	"mcddvfs/internal/isa"
)

// Recorded is a workload's full dynamic instruction stream captured
// into compact append-only columnar buffers. The stream a Generator
// produces depends only on (profile, seed, total) — never on the DVFS
// scheme simulated on top of it — so one Recorded can be built once
// and fanned out to every scheme × fault cell of an experiment matrix:
// each consumer gets its own Replayer cursor over the same immutable
// arrays, paying neither the generation work (RNG draws, branch-count
// map updates) nor any per-instruction allocation.
//
// Layout is struct-of-arrays, following the simulator's zero-alloc
// conventions: one contiguous slab per field, 25 bytes per
// instruction. Target and Addr are mutually exclusive by construction
// (branches carry a target, memory ops an address, everything else
// neither), so they share the one `extra` column; the taken flag rides
// in the class byte's high bit.
type Recorded struct {
	name string

	pc    []uint64
	extra []uint64 // Target for branches, Addr for loads/stores
	dep1  []uint32
	dep2  []uint32
	meta  []uint8 // bits 0..6 = isa.Class, bit 7 = branch taken
}

const takenBit = 0x80

// Record drains src into a Recorded stream named name. It stops at end
// of stream; the capacity hint sizes the buffers up front (pass the
// known instruction budget, or 0 when unknown).
func Record(src Source, capacity int64) *Recorded {
	if capacity < 0 {
		capacity = 0
	}
	r := &Recorded{
		name:  src.Name(),
		pc:    make([]uint64, 0, capacity),
		extra: make([]uint64, 0, capacity),
		dep1:  make([]uint32, 0, capacity),
		dep2:  make([]uint32, 0, capacity),
		meta:  make([]uint8, 0, capacity),
	}
	for {
		in, ok := src.Next()
		if !ok {
			return r
		}
		m := uint8(in.Class)
		var extra uint64
		switch in.Class {
		case isa.Branch:
			extra = in.Target
			if in.Taken {
				m |= takenBit
			}
		case isa.Load, isa.Store:
			extra = in.Addr
		}
		r.pc = append(r.pc, in.PC)
		r.extra = append(r.extra, extra)
		r.dep1 = append(r.dep1, in.Dep1)
		r.dep2 = append(r.dep2, in.Dep2)
		r.meta = append(r.meta, m)
	}
}

// RecordProfile generates and captures a profile's stream exactly as
// the simulator would consume it live: the Generator seeded with
// (seed, total) produces a bit-identical sequence whether it is
// simulated directly or recorded here and replayed.
func RecordProfile(p Profile, seed, total int64) (*Recorded, error) {
	g, err := NewGenerator(p, seed, total)
	if err != nil {
		return nil, fmt.Errorf("trace: recording %q: %w", p.Name, err)
	}
	return Record(g, total), nil
}

// Name returns the recorded workload's name.
func (r *Recorded) Name() string { return r.name }

// Len returns the number of recorded instructions.
func (r *Recorded) Len() int64 { return int64(len(r.pc)) }

// Bytes returns the approximate resident size of the recording.
func (r *Recorded) Bytes() int64 {
	return int64(len(r.pc))*(8+8+4+4+1) + int64(len(r.name))
}

// Replay returns a fresh read-only cursor over the recording. Cursors
// are independent: any number may stream the same Recorded
// concurrently (the underlying arrays are never written after Record
// returns), but a single Replayer is not safe for concurrent use —
// give each consumer its own.
func (r *Recorded) Replay() *Replayer {
	return &Replayer{rec: r}
}

// Replayer streams a Recorded trace as a Source. Next performs no
// allocation and no RNG work — it only decodes the shared columns.
type Replayer struct {
	rec *Recorded
	i   int64
}

// Name implements Source.
func (p *Replayer) Name() string { return p.rec.name }

// Next implements Source. Next runs once per simulated instruction,
// and keeping the column loads in one frame lets the compiler fold the
// five bounds checks into the single length test.
func (p *Replayer) Next() (isa.Inst, bool) {
	rec := p.rec
	i := p.i
	if i >= int64(len(rec.meta)) {
		return isa.Inst{}, false
	}
	p.i = i + 1
	m := rec.meta[i]
	in := isa.Inst{
		PC:    rec.pc[i],
		Class: isa.Class(m &^ takenBit),
		Dep1:  rec.dep1[i],
		Dep2:  rec.dep2[i],
	}
	switch in.Class {
	case isa.Branch:
		in.Target = rec.extra[i]
		in.Taken = m&takenBit != 0
	case isa.Load, isa.Store:
		in.Addr = rec.extra[i]
	}
	return in, true
}

var _ Source = (*Replayer)(nil)

package trace

import (
	"fmt"
	"math"
	"unsafe"

	"mcddvfs/internal/isa"
	"mcddvfs/internal/layout"
)

// Recorded is a workload's full dynamic instruction stream captured
// in the instruction codec (codec.go). The stream a Generator produces
// depends only on (profile, seed, total) — never on the DVFS scheme
// simulated on top of it — so one Recorded can be built once and
// fanned out to every scheme × fault cell of an experiment matrix:
// each consumer gets its own Replayer cursor over the same immutable
// bytes, paying neither the generation work (RNG draws, branch-count
// map updates) nor any per-instruction allocation. The bundled
// profiles record at 3.1–4.1 bytes per instruction.
type Recorded struct {
	name string
	n    int64
	code []byte
}

const (
	// recordHintBytes sizes Record's buffer per hinted instruction:
	// about the bundled profiles' typical density.
	recordHintBytes = 4
	// recordSlack is how much spare capacity Record leaves in a
	// finished recording before it copies the bytes into an exact-size
	// buffer, so that Bytes, what the replay memo charges, stays close
	// to the encoded size.
	recordSlack = 1 << 12
)

// Record drains src into a Recorded stream named name. It stops at end
// of stream; the capacity hint sizes the buffer up front (pass the
// known instruction budget, or 0 when unknown).
func Record(src Source, capacity int64) *Recorded {
	return record(src, capacity, math.MaxInt64)
}

// record is Record stopped after limit instructions.
func record(src Source, capacity, limit int64) *Recorded {
	if capacity < 0 {
		capacity = 0
	}
	r := &Recorded{name: src.Name()}
	code := make([]byte, 0, capacity*recordHintBytes)
	var enc instEncoder
	for r.n < limit {
		in, ok := src.Next()
		if !ok {
			break
		}
		code = enc.append(code, in)
		r.n++
	}
	if cap(code)-len(code) > recordSlack {
		code = append([]byte(nil), code...)
	}
	r.code = code
	return r
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

// Len returns the number of recorded instructions.
func (r *Recorded) Len() int64 { return r.n }

// Bytes returns the resident size of the recording: its encoded
// buffer, spare capacity included, and its name.
func (r *Recorded) Bytes() int64 {
	return int64(cap(r.code)) + int64(len(r.name))
}

// Replay returns a fresh read-only cursor over the recording. Cursors
// are independent: any number may stream the same Recorded
// concurrently (the underlying bytes are never written after Record
// returns), but a single Replayer is not safe for concurrent use —
// give each consumer its own.
func (r *Recorded) Replay() *Replayer {
	return &Replayer{replayerState: replayerState{name: r.name, run: instRun{buf: r.code, left: r.n}}}
}

// Replayer streams a Recorded trace as a Source. Next performs no
// allocation and no RNG work — it only decodes the shared bytes.
type Replayer struct {
	replayerState
	// Whole layout.Blocks: each core has its own, advanced every fetch.
	_ [(layout.Block - unsafe.Sizeof(replayerState{})%layout.Block) % layout.Block]byte
}

// replayerState is Replayer's state.
type replayerState struct {
	name string
	run  instRun
}

// Name implements Source.
func (p *Replayer) Name() string { return p.name }

// Next implements Source. Record writes only what the decoder reads
// back, so a recording replays to its end; the one exception is an
// instruction with an invalid class, where the stream ends.
func (p *Replayer) Next() (isa.Inst, bool) { return p.run.next() }

var _ Source = (*Replayer)(nil)

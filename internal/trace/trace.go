// Package trace generates synthetic dynamic instruction streams for the
// MCD processor simulator.
//
// The paper evaluates on MediaBench and SPEC2000 binaries running under a
// cycle-accurate simulator. Those binaries and inputs are not available
// here, so each benchmark is replaced by a *profile*: a sequence of
// program phases, each characterized by its instruction mix, its
// dependency-distance distribution (instruction-level parallelism), its
// branch behavior, and its memory working set. The generator streams
// micro-operations (isa.Inst) drawn from the active phase, switching
// phases at the profiled boundaries.
//
// This substitution preserves what the paper's DVFS controllers actually
// observe: issue-queue occupancy dynamics created by the interaction of
// the front-end arrival rate and each domain's service rate. Phase
// changes in the profile produce exactly the workload swings — gradual
// drifts, sharp bursts, long empty stretches — that drive Figures 7–11.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"

	"mcddvfs/internal/isa"
	"mcddvfs/internal/layout"
)

// Mix is the probability of each operation class in a phase. Weights
// need not sum to 1; the generator normalizes them.
type Mix [isa.NumClasses]float64

// normalize returns cumulative probabilities over the classes.
func (m Mix) cumulative() ([isa.NumClasses]float64, error) {
	var cum [isa.NumClasses]float64
	total := 0.0
	for _, w := range m {
		if w < 0 {
			return cum, fmt.Errorf("trace: negative mix weight %g", w)
		}
		total += w
	}
	if total == 0 {
		return cum, fmt.Errorf("trace: empty instruction mix")
	}
	acc := 0.0
	for i, w := range m {
		acc += w / total
		cum[i] = acc
	}
	cum[isa.NumClasses-1] = 1.0
	return cum, nil
}

// Phase describes one program phase.
type Phase struct {
	// Name labels the phase in reports.
	Name string
	// Weight is the phase's share of the benchmark's dynamic
	// instructions (relative to the sum of weights over all phases).
	Weight float64
	// Mix is the instruction-class mix.
	Mix Mix
	// DepMean is the mean producer distance for register operands.
	// Distances are drawn from a geometric distribution with this mean;
	// small values serialize execution (low ILP), large values expose
	// parallelism.
	DepMean float64
	// Dep2Prob is the probability that an instruction has a second
	// register operand.
	Dep2Prob float64
	// BranchBias is the taken probability of easy (strongly biased)
	// static branches.
	BranchBias float64
	// HardBranchFrac is the fraction of static branches that are hard
	// (outcome near 50/50), which sets the misprediction rate the
	// predictor can achieve.
	HardBranchFrac float64
	// WorkingSet is the data working-set size in bytes; data addresses
	// fall inside it.
	WorkingSet uint64
	// SeqFrac is the fraction of memory accesses that follow a
	// sequential (strided) stream; the rest are uniform over the
	// working set.
	SeqFrac float64
	// Stride is the byte stride of the sequential stream (default 8).
	Stride uint64
	// CodeSize is the static code footprint in bytes; the PC walks
	// inside it, which determines I-cache behavior.
	CodeSize uint64
}

// Profile is a complete synthetic benchmark.
type Profile struct {
	// Name identifies the benchmark (e.g. "epic_decode").
	Name string
	// Suite is "MediaBench", "SPECint" or "SPECfp".
	Suite string
	// Phases play in order; with Loop set the sequence repeats until
	// the requested instruction budget is exhausted, otherwise phase
	// lengths are scaled proportionally to their weights.
	Phases []Phase
	// Loop selects cyclic phase repetition with LoopLen instructions
	// per weight unit, producing workload variation whose period is
	// independent of the total run length (fast-varying benchmarks).
	Loop bool
	// LoopLen is the number of instructions corresponding to one unit
	// of phase weight when Loop is set.
	LoopLen int64
}

// Validate checks the profile for structural errors.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile with empty name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("trace: profile %q has no phases", p.Name)
	}
	total := 0.0
	for i := range p.Phases {
		ph := &p.Phases[i]
		if ph.Weight <= 0 {
			return fmt.Errorf("trace: profile %q phase %q: non-positive weight", p.Name, ph.Name)
		}
		total += ph.Weight
		if _, err := ph.Mix.cumulative(); err != nil {
			return fmt.Errorf("trace: profile %q phase %q: %v", p.Name, ph.Name, err)
		}
		if ph.DepMean < 1 {
			return fmt.Errorf("trace: profile %q phase %q: DepMean %g < 1", p.Name, ph.Name, ph.DepMean)
		}
		if ph.WorkingSet == 0 || ph.CodeSize == 0 {
			return fmt.Errorf("trace: profile %q phase %q: zero working set or code size", p.Name, ph.Name)
		}
	}
	if p.Loop && p.LoopLen <= 0 {
		return fmt.Errorf("trace: looping profile %q needs LoopLen > 0", p.Name)
	}
	_ = total
	return nil
}

// Source is a stream of dynamic instructions. Generator produces them
// synthetically; Replayer replays a recorded stream, whether Record
// built it or ReadRecorded read it from a trace file. The simulator
// consumes either.
type Source interface {
	// Next returns the next instruction; ok is false at end of stream.
	Next() (in isa.Inst, ok bool)
	// Name identifies the workload for reports.
	Name() string
}

// Generator streams the dynamic instructions of a profile. It is
// deterministic for a given (profile, seed, total) triple.
type Generator struct {
	generatorState
	// Whole layout.Blocks: each core has its own, advanced every fetch.
	_ [(layout.Block - unsafe.Sizeof(generatorState{})%layout.Block) % layout.Block]byte
}

// generatorState is Generator's state.
type generatorState struct {
	prof  Profile
	rng   *rand.Rand
	total int64
	count int64

	// Per-phase schedule: phase index and remaining instructions.
	phaseIdx  int
	remaining int64
	lengths   []int64 // per-phase lengths for non-loop profiles

	// Cached per-phase derived state.
	cum       [isa.NumClasses]float64
	logQ      float64 // math.Log(1 - 1/DepMean), valid when depGeo
	depGeo    bool    // DepMean > 1: geometric draw needed in drawDep
	dataBase  uint64
	codeBase  uint64
	seqCursor uint64
	pc        uint64

	// branchCount tracks per-static-branch occurrence counts, driving
	// the periodic outcome patterns of easy branches.
	branchCount map[uint64]uint32
}

// codeRegionBase and dataRegionBase separate instruction and data
// address spaces so I- and D-cache behavior do not interfere.
const (
	codeRegionBase = 0x0040_0000
	dataRegionBase = 0x1000_0000
)

// streamSeedOffset decouples the workload stream's RNG from the other
// RNG consumers (clock jitter, fault processes) that the harness
// derives from the same user-facing seed.
const streamSeedOffset = 11

// StreamSeed maps a user-facing harness seed to the generator seed of
// the workload stream. The experiment harness seeds every stream
// through it, whether it records the stream into its replay memo or
// generates it per run, so the two give the same instructions for one
// Options.Seed; core i of a chip streams at StreamSeed(Seed+i).
func StreamSeed(seed int64) int64 { return seed + streamSeedOffset }

// NewGenerator builds a generator producing exactly total instructions.
func NewGenerator(p Profile, seed int64, total int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, fmt.Errorf("trace: non-positive instruction budget %d", total)
	}
	g := &Generator{generatorState: generatorState{
		prof:        p,
		rng:         rand.New(rand.NewSource(seed)),
		total:       total,
		branchCount: make(map[uint64]uint32),
	}}
	if !p.Loop {
		g.lengths = scaledLengths(p.Phases, total)
	}
	g.enterPhase(0)
	return g, nil
}

// scaledLengths distributes total over phases proportionally to weight,
// guaranteeing every phase at least 1 instruction and an exact sum.
func scaledLengths(phases []Phase, total int64) []int64 {
	wsum := 0.0
	for i := range phases {
		wsum += phases[i].Weight
	}
	lens := make([]int64, len(phases))
	var used int64
	for i := range phases {
		l := int64(float64(total) * phases[i].Weight / wsum)
		if l < 1 {
			l = 1
		}
		lens[i] = l
		used += l
	}
	// Fix rounding drift on the longest phase.
	drift := total - used
	longest := 0
	for i, l := range lens {
		if l > lens[longest] {
			longest = i
		}
		_ = l
	}
	lens[longest] += drift
	if lens[longest] < 1 {
		lens[longest] = 1
	}
	return lens
}

func (g *Generator) enterPhase(idx int) {
	g.phaseIdx = idx
	ph := &g.prof.Phases[idx]
	if g.prof.Loop {
		g.remaining = int64(ph.Weight * float64(g.prof.LoopLen))
		if g.remaining < 1 {
			g.remaining = 1
		}
	} else {
		g.remaining = g.lengths[idx]
	}
	cum, err := ph.Mix.cumulative()
	if err != nil {
		panic(err) // validated in NewGenerator
	}
	g.cum = cum
	// The geometric dependence draw divides by math.Log(1-p) with
	// p = 1/DepMean — a per-phase constant, cached here so drawDep pays
	// one Log per draw instead of two. The division form is kept in
	// drawDep so drawn values stay bit-identical.
	g.depGeo = ph.DepMean > 1
	if g.depGeo {
		g.logQ = math.Log(1 - 1/ph.DepMean)
	} else {
		g.logQ = 0
	}
	// Benchmarks reuse one data region across phases (working sets
	// overlap, as in real programs); code regions differ per phase so
	// that phase changes disturb the I-cache.
	g.dataBase = dataRegionBase
	g.codeBase = codeRegionBase + uint64(idx)*0x0010_0000
	g.pc = g.codeBase
}

// advancePhase moves to the next phase per the profile's policy and
// reports whether another phase is available.
func (g *Generator) advancePhase() bool {
	next := g.phaseIdx + 1
	if next >= len(g.prof.Phases) {
		if !g.prof.Loop {
			return false
		}
		next = 0
	}
	g.enterPhase(next)
	return true
}

// Name implements Source.
func (g *Generator) Name() string { return g.prof.Name }

var _ Source = (*Generator)(nil)

// Next produces the next dynamic instruction. ok is false once the
// instruction budget is exhausted.
func (g *Generator) Next() (in isa.Inst, ok bool) {
	if g.count >= g.total {
		return isa.Inst{}, false
	}
	for g.remaining <= 0 {
		if !g.advancePhase() {
			return isa.Inst{}, false
		}
	}
	ph := &g.prof.Phases[g.phaseIdx]
	g.count++
	g.remaining--

	in.Class = g.classAtPC(g.pc)
	in.PC = g.pc

	// Register dependencies: geometric producer distances.
	in.Dep1 = g.drawDep(ph)
	if g.rng.Float64() < ph.Dep2Prob {
		in.Dep2 = g.drawDep(ph)
	}

	switch in.Class {
	case isa.Load, isa.Store:
		in.Addr = g.drawAddr(ph)
	case isa.Branch:
		in.Taken, in.Target = g.drawBranch(ph)
	}

	// Advance the PC: straight-line code, except taken branches jump.
	if in.Class == isa.Branch && in.Taken {
		g.pc = in.Target
	} else {
		g.pc = g.nextPC(ph, g.pc+4)
	}
	return in, true
}

// classAtPC returns the operation class of the static instruction at
// pc. The class is a *deterministic* hash of the PC mapped through the
// phase's mix distribution: the synthetic code is a real static program
// — revisiting a PC (a loop iteration) re-executes the same
// instruction. This is what lets branch predictors, BTBs, and I-caches
// warm up exactly as they do on real binaries, while the dynamic mix
// still converges to the configured distribution over the code region.
func (g *Generator) classAtPC(pc uint64) isa.Class {
	h := (pc ^ 0xA5A5_5A5A_1234_9876) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	u := float64(h>>11) / float64(uint64(1)<<53)
	// Linear scan: NumClasses is small, and this runs once per emitted
	// instruction — the sort.Search closure overhead is measurable here.
	for i := 0; i < isa.NumClasses-1; i++ {
		if g.cum[i] >= u {
			return isa.Class(i)
		}
	}
	return isa.Class(isa.NumClasses - 1)
}

// drawDep samples a producer distance: geometric with the phase mean,
// clamped to [1, 512]. A distance of 0 (no dependence) happens when the
// geometric draw exceeds the clamp, modeling operands produced far in
// the past that are architecturally ready.
func (g *Generator) drawDep(ph *Phase) uint32 {
	// Geometric with success probability p = 1/mean, support {1,2,...}.
	// math.Log(1-p) is the per-phase constant cached as logQ.
	// Inverse-transform sampling keeps it to one uniform draw.
	u := g.rng.Float64()
	d := int64(1)
	if g.depGeo {
		d = int64(math.Log(1-u)/g.logQ) + 1
	}
	if d > 512 {
		return 0 // long-dead producer: operand ready
	}
	if d < 1 {
		d = 1
	}
	return uint32(d)
}

// drawAddr samples a data address: a sequential (strided) stream with
// probability SeqFrac; otherwise an irregular access over the working
// set. Irregular accesses still have temporal locality, as in real
// programs: 3 in 4 hit a hot subset one eighth the working-set size,
// the rest range over the whole set. A working set much larger than the
// cache hierarchy (e.g. mcf's) therefore still thrashes, while modest
// working sets enjoy realistic hit rates.
func (g *Generator) drawAddr(ph *Phase) uint64 {
	if g.rng.Float64() < ph.SeqFrac {
		stride := ph.Stride
		if stride == 0 {
			stride = 8
		}
		g.seqCursor += stride
		if g.seqCursor >= ph.WorkingSet {
			g.seqCursor = 0
		}
		return g.dataBase + g.seqCursor
	}
	span := ph.WorkingSet
	if g.rng.Float64() < 0.75 {
		span = ph.WorkingSet / 8
		if span < 64 {
			span = 64
		}
	}
	off := uint64(g.rng.Int63n(int64(span/8))) * 8
	return g.dataBase + off
}

// drawBranch produces a branch outcome and target.
//
// The static branch at a PC has a deterministic *kind* and *target*
// (real branch targets are static), so the BTB and direction predictors
// warm up exactly as on real binaries:
//
//   - ~25% are loop back-edges: a short backward target (body of 1–64
//     instructions) taken (k−1)-of-k, with the trip count k derived
//     from the phase bias and a heavy-tailed hash factor. These create
//     the hot loops where execution concentrates.
//   - ~60% are forward conditionals (if/else): a short forward target,
//     mostly not taken (taken 1-of-m periodically), so control flows
//     onward locally.
//   - the rest are far jumps across the code region, rarely taken.
//
// A HardBranchFrac subset of static branches is data-dependent instead:
// a 55/45 coin flip no predictor beats, which sets the achievable
// misprediction rate for the phase.
func (g *Generator) drawBranch(ph *Phase) (taken bool, target uint64) {
	h := g.pc * 0x9E3779B97F4A7C15
	c := g.branchCount[g.pc]
	g.branchCount[g.pc] = c + 1
	hard := isHardBranch(g.pc, ph.HardBranchFrac)

	kind := h % 100
	switch {
	case kind < 25: // loop back-edge
		back := (h>>17)%64*4 + 4
		target = g.pc - back
		if target < g.codeBase {
			target += ph.CodeSize
		}
		if hard {
			taken = g.rng.Float64() < 0.55
			break
		}
		bias := ph.BranchBias
		if bias < 0.5 || bias >= 1 {
			bias = 0.9
		}
		// Trip count: phase-bias base times a hash factor of 1–4,
		// making the distribution heavy-tailed so hot loops dominate.
		k := uint32(1 / (1 - bias))
		if k < 2 {
			k = 2
		}
		k <<= (h >> 9) % 3
		taken = c%k != k-1
	case kind < 85: // forward conditional
		// Short forward hops (2–9 instructions): if/else joins stay
		// inside the enclosing loop body, as compilers lay them out.
		fwd := (h>>17)%8*4 + 8
		target = g.pc + fwd
		if hard {
			taken = g.rng.Float64() < 0.45
			break
		}
		m := uint32(3 + (h>>9)%8)
		taken = c%m == m-1 // mostly not taken
	default: // far jump (call-like), rarely taken
		target = g.codeBase + (h>>23)%(ph.CodeSize/4)*4
		taken = c%8 == 7
	}
	return taken, g.nextPC(ph, target)
}

// nextPC wraps the program counter inside the phase code region.
func (g *Generator) nextPC(ph *Phase, pc uint64) uint64 {
	if pc < g.codeBase || pc >= g.codeBase+ph.CodeSize {
		return g.codeBase + (pc % ph.CodeSize &^ 3)
	}
	return pc
}

// isHardBranch deterministically classifies a static branch by hashing
// its PC against the hard fraction.
func isHardBranch(pc uint64, hardFrac float64) bool {
	h := pc * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return float64(h>>40)/float64(1<<24) < hardFrac
}

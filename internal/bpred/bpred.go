// Package bpred implements the branch prediction hardware of the
// simulated processor: a bimodal predictor, a two-level adaptive
// predictor, a combined (tournament) predictor, and a set-associative
// branch target buffer, matching the Table-1 configuration of the paper
// (2-level L1 1024 / history 10 / L2 1024, bimodal 1024, combined meta
// 4096, BTB 4096 sets 2-way).
package bpred

import "fmt"

// counter2 is a 2-bit saturating counter; values 0..3, taken when >= 2.
type counter2 uint8

func (c counter2) taken() bool { return c >= 2 }

func (c counter2) update(taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// DirectionPredictor predicts conditional branch directions.
type DirectionPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter2
	mask  uint64
}

// NewBimodal creates a bimodal predictor with the given table size,
// which must be a power of two. Counters initialize to weakly taken.
func NewBimodal(size int) *Bimodal {
	checkPow2("bimodal size", size)
	t := make([]counter2, size)
	for i := range t {
		t[i] = 2
	}
	return &Bimodal{table: t, mask: uint64(size - 1)}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements DirectionPredictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Update implements DirectionPredictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].update(taken)
}

// TwoLevel is a two-level adaptive predictor: a first-level table of
// per-branch history registers indexing a second-level pattern table of
// 2-bit counters (PAg-style, as configured in SimpleScalar).
type TwoLevel struct {
	hist     []uint64
	pattern  []counter2
	histBits uint
	l1mask   uint64
	l2mask   uint64
}

// NewTwoLevel creates a two-level predictor with l1 history registers of
// histBits bits and an l2 pattern table. Both sizes must be powers of 2.
func NewTwoLevel(l1, l2 int, histBits uint) *TwoLevel {
	checkPow2("two-level L1 size", l1)
	checkPow2("two-level L2 size", l2)
	if histBits == 0 || histBits > 30 {
		panic(fmt.Sprintf("bpred: bad history length %d", histBits))
	}
	p := make([]counter2, l2)
	for i := range p {
		p[i] = 2
	}
	return &TwoLevel{
		hist:     make([]uint64, l1),
		pattern:  p,
		histBits: histBits,
		l1mask:   uint64(l1 - 1),
		l2mask:   uint64(l2 - 1),
	}
}

func (t *TwoLevel) patternIndex(pc uint64) uint64 {
	h := t.hist[(pc>>2)&t.l1mask]
	// XOR in PC bits (gshare flavor) so different branches sharing a
	// history register don't fully alias in the pattern table.
	return (h ^ (pc >> 2)) & t.l2mask
}

// Predict implements DirectionPredictor.
func (t *TwoLevel) Predict(pc uint64) bool {
	return t.pattern[t.patternIndex(pc)].taken()
}

// Update implements DirectionPredictor.
func (t *TwoLevel) Update(pc uint64, taken bool) {
	pi := t.patternIndex(pc)
	t.pattern[pi] = t.pattern[pi].update(taken)
	hi := (pc >> 2) & t.l1mask
	bit := uint64(0)
	if taken {
		bit = 1
	}
	t.hist[hi] = ((t.hist[hi] << 1) | bit) & ((1 << t.histBits) - 1)
}

// Combined is a tournament predictor: a meta table of 2-bit counters
// selects between a bimodal and a two-level component per branch.
type Combined struct {
	bimodal *Bimodal
	twoLvl  *TwoLevel
	meta    []counter2
	mask    uint64
}

// NewCombined creates the paper's combined predictor.
func NewCombined(bimodalSize, l1, l2 int, histBits uint, metaSize int) *Combined {
	checkPow2("meta size", metaSize)
	m := make([]counter2, metaSize)
	for i := range m {
		m[i] = 2 // weakly prefer the two-level component
	}
	return &Combined{
		bimodal: NewBimodal(bimodalSize),
		twoLvl:  NewTwoLevel(l1, l2, histBits),
		meta:    m,
		mask:    uint64(metaSize - 1),
	}
}

// DefaultCombined builds the Table-1 configuration: bimodal 1024,
// 2-level 1024/10/1024, meta 4096.
func DefaultCombined() *Combined { return NewCombined(1024, 1024, 1024, 10, 4096) }

// Predict implements DirectionPredictor.
func (c *Combined) Predict(pc uint64) bool {
	if c.meta[(pc>>2)&c.mask].taken() {
		return c.twoLvl.Predict(pc)
	}
	return c.bimodal.Predict(pc)
}

// Update implements DirectionPredictor. The meta counter trains toward
// whichever component was correct when they disagreed.
func (c *Combined) Update(pc uint64, taken bool) {
	pb := c.bimodal.Predict(pc)
	pt := c.twoLvl.Predict(pc)
	if pb != pt {
		i := (pc >> 2) & c.mask
		c.meta[i] = c.meta[i].update(pt == taken)
	}
	c.bimodal.Update(pc, taken)
	c.twoLvl.Update(pc, taken)
}

// BTB is a set-associative branch target buffer with LRU replacement.
type BTB struct {
	sets    int
	ways    int
	tags    []uint64 // sets*ways entries; 0 = invalid
	targets []uint64
	lru     []uint8 // per-entry age, smaller = more recent
}

// NewBTB creates a BTB with the given geometry.
func NewBTB(sets, ways int) *BTB {
	checkPow2("BTB sets", sets)
	if ways <= 0 {
		panic("bpred: BTB ways must be positive")
	}
	n := sets * ways
	return &BTB{
		sets: sets, ways: ways,
		tags:    make([]uint64, n),
		targets: make([]uint64, n),
		lru:     make([]uint8, n),
	}
}

// DefaultBTB builds the Table-1 configuration: 4096 sets, 2-way.
func DefaultBTB() *BTB { return NewBTB(4096, 2) }

func (b *BTB) set(pc uint64) int { return int((pc >> 2) & uint64(b.sets-1)) }

// Lookup returns the predicted target for pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	base := b.set(pc) * b.ways
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == pc {
			b.touch(base, w)
			return b.targets[base+w], true
		}
	}
	return 0, false
}

// Insert records a taken branch's target, evicting the LRU way.
func (b *BTB) Insert(pc, target uint64) {
	base := b.set(pc) * b.ways
	victim := 0
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == pc || b.tags[base+w] == 0 {
			victim = w
			break
		}
		if b.lru[base+w] > b.lru[base+victim] {
			victim = w
		}
	}
	b.tags[base+victim] = pc
	b.targets[base+victim] = target
	b.touch(base, victim)
}

// touch marks way w most recent within the set starting at base.
func (b *BTB) touch(base, w int) {
	for i := 0; i < b.ways; i++ {
		if b.lru[base+i] < 255 {
			b.lru[base+i]++
		}
	}
	b.lru[base+w] = 0
}

// Unit bundles a direction predictor and a BTB; this is what the front
// end instantiates.
type Unit struct {
	dir DirectionPredictor
	btb *BTB
}

// NewUnit creates a prediction unit.
func NewUnit(dir DirectionPredictor, btb *BTB) *Unit {
	return &Unit{dir: dir, btb: btb}
}

// DefaultUnit builds the paper's full configuration.
func DefaultUnit() *Unit { return NewUnit(DefaultCombined(), DefaultBTB()) }

// Predict returns the predicted direction and target for the branch at
// pc. A predicted-taken branch without a BTB entry predicts not-taken
// (the front end cannot redirect without a target).
func (u *Unit) Predict(pc uint64) (taken bool, target uint64) {
	taken = u.dir.Predict(pc)
	if !taken {
		return false, 0
	}
	target, hit := u.btb.Lookup(pc)
	if !hit {
		return false, 0
	}
	return true, target
}

// Resolve trains the unit with the architectural outcome and reports
// whether the earlier prediction (as Predict would have produced it
// before this update) was a misprediction.
func (u *Unit) Resolve(pc uint64, predictedTaken bool, predictedTarget uint64, taken bool, target uint64) (mispredict bool) {
	if predictedTaken != taken || (taken && predictedTarget != target) {
		mispredict = true
	}
	u.dir.Update(pc, taken)
	if taken {
		u.btb.Insert(pc, target)
	}
	return mispredict
}

func checkPow2(what string, n int) {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("bpred: %s %d is not a power of two", what, n))
	}
}

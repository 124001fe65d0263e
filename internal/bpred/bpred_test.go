package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounter2Saturates(t *testing.T) {
	c := counter2(0)
	c = c.update(false)
	if c != 0 {
		t.Error("counter went below 0")
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter = %d, want saturated 3", c)
	}
	if !c.taken() {
		t.Error("saturated counter should predict taken")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	pc := uint64(0x400100)
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Error("bimodal failed to learn always-not-taken")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("bimodal failed to re-learn always-taken")
	}
}

func TestTwoLevelLearnsPattern(t *testing.T) {
	// A strict alternation T,N,T,N is invisible to bimodal but trivial
	// for a history-based predictor.
	tl := NewTwoLevel(1024, 1024, 10)
	pc := uint64(0x400200)
	outcome := func(i int) bool { return i%2 == 0 }
	// Train.
	for i := 0; i < 2000; i++ {
		tl.Update(pc, outcome(i))
	}
	// Measure.
	correct := 0
	for i := 2000; i < 2400; i++ {
		if tl.Predict(pc) == outcome(i) {
			correct++
		}
		tl.Update(pc, outcome(i))
	}
	if correct < 380 {
		t.Errorf("two-level got %d/400 on alternating pattern, want ~400", correct)
	}
}

func TestCombinedBeatsWorstComponent(t *testing.T) {
	// Mixture: half biased branches (bimodal-friendly), half periodic
	// (two-level-friendly). The tournament should do well on both.
	c := DefaultCombined()
	rng := rand.New(rand.NewSource(1))
	correct, total := 0, 0
	for i := 0; i < 30000; i++ {
		var pc uint64
		var taken bool
		if i%2 == 0 {
			pc = 0x400000 + uint64(i%8)*4
			taken = rng.Float64() < 0.95
		} else {
			pc = 0x500000 + uint64(i%4)*4
			taken = (i/2)%3 == 0 // period-3 pattern
		}
		if i > 10000 {
			if c.Predict(pc) == taken {
				correct++
			}
			total++
		}
		c.Update(pc, taken)
	}
	if acc := float64(correct) / float64(total); acc < 0.85 {
		t.Errorf("combined accuracy %.3f, want > 0.85", acc)
	}
}

func TestBTBHitAfterInsert(t *testing.T) {
	b := DefaultBTB()
	b.Insert(0x400100, 0x400800)
	tgt, hit := b.Lookup(0x400100)
	if !hit || tgt != 0x400800 {
		t.Errorf("Lookup = (%#x,%v), want (0x400800,true)", tgt, hit)
	}
	if _, hit := b.Lookup(0x999000); hit {
		t.Error("unexpected BTB hit")
	}
}

func TestBTBLRUReplacement(t *testing.T) {
	b := NewBTB(1, 2) // single set, 2 ways
	b.Insert(0x1000, 0xA)
	b.Insert(0x2000, 0xB)
	b.Lookup(0x1000)      // touch 0x1000: now 0x2000 is LRU
	b.Insert(0x3000, 0xC) // must evict 0x2000
	if _, hit := b.Lookup(0x2000); hit {
		t.Error("LRU entry not evicted")
	}
	if _, hit := b.Lookup(0x1000); !hit {
		t.Error("MRU entry evicted")
	}
	if tgt, hit := b.Lookup(0x3000); !hit || tgt != 0xC {
		t.Error("new entry missing")
	}
}

func TestBTBUpdateExistingEntry(t *testing.T) {
	b := NewBTB(4, 2)
	b.Insert(0x1000, 0xA)
	b.Insert(0x1000, 0xB)
	if tgt, _ := b.Lookup(0x1000); tgt != 0xB {
		t.Errorf("target = %#x, want 0xB after re-insert", tgt)
	}
}

func TestUnitPredictNeedsBTBForTaken(t *testing.T) {
	u := DefaultUnit()
	pc := uint64(0x400300)
	// Train direction taken but never insert a target...
	for i := 0; i < 10; i++ {
		u.dir.Update(pc, true)
	}
	taken, _ := u.Predict(pc)
	if taken {
		t.Error("predicted taken without a BTB target")
	}
}

func TestUnitResolveCountsMispredicts(t *testing.T) {
	u := DefaultUnit()
	pc := uint64(0x400400)
	pt, ptgt := u.Predict(pc)
	mis := u.Resolve(pc, pt, ptgt, true, 0x400900)
	if !mis {
		t.Error("first taken branch should mispredict (no BTB entry yet)")
	}
	// After training, the same branch should predict correctly.
	for i := 0; i < 8; i++ {
		pt, ptgt = u.Predict(pc)
		u.Resolve(pc, pt, ptgt, true, 0x400900)
	}
	pt, ptgt = u.Predict(pc)
	if !pt || ptgt != 0x400900 {
		t.Errorf("after training: predict = (%v,%#x), want (true,0x400900)", pt, ptgt)
	}
	if u.Resolve(pc, pt, ptgt, true, 0x400900) {
		t.Error("trained branch reported a misprediction")
	}
}

func TestUnitWrongTargetIsMispredict(t *testing.T) {
	u := DefaultUnit()
	pc := uint64(0x400500)
	for i := 0; i < 8; i++ {
		pt, ptgt := u.Predict(pc)
		u.Resolve(pc, pt, ptgt, true, 0x400600)
	}
	pt, ptgt := u.Predict(pc)
	if !pt {
		t.Fatal("expected taken prediction after training")
	}
	// Same branch suddenly jumps elsewhere (indirect-like behavior).
	if !u.Resolve(pc, pt, ptgt, true, 0xDEAD00) {
		t.Error("wrong target must count as misprediction")
	}
}

func TestPredictorsNeverPanicOnArbitraryPCs(t *testing.T) {
	u := DefaultUnit()
	f := func(pc uint64, taken bool) bool {
		pt, ptgt := u.Predict(pc)
		u.Resolve(pc, pt, ptgt, taken, pc+8)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCheckPow2Panics(t *testing.T) {
	for _, n := range []int{0, -4, 3, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d did not panic", n)
				}
			}()
			NewBimodal(n)
		}()
	}
}

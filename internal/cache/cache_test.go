package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Probe reports whether addr is resident without updating state: the
// tests' window onto residency.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

func TestAccessHitAfterMiss(t *testing.T) {
	c := New("t", 1<<10, 2, 64)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("warm access missed")
	}
	if !c.Access(0x1004) {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 accesses / 1 miss", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, 1 set: three distinct lines must evict the least recent.
	c := New("t", 128, 2, 64)
	if c.sets != 1 {
		t.Fatalf("sets = %d, want 1", c.sets)
	}
	c.Access(0x0000) // A
	c.Access(0x4000) // B
	c.Access(0x0000) // touch A; B is LRU
	c.Access(0x8000) // C evicts B
	if !c.Probe(0x0000) {
		t.Error("MRU line A evicted")
	}
	if c.Probe(0x4000) {
		t.Error("LRU line B survived")
	}
	if !c.Probe(0x8000) {
		t.Error("new line C missing")
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	c := New("t", 128, 2, 64)
	c.Access(0x0000)
	before := c.Stats()
	c.Probe(0x0000)
	c.Probe(0x4000)
	if c.Stats() != before {
		t.Error("Probe changed statistics")
	}
}

func TestWorkingSetFitsMeansHighHitRate(t *testing.T) {
	c := New("t", 64<<10, 2, 64)
	rng := rand.New(rand.NewSource(1))
	// 32 KB working set inside a 64 KB cache: after warmup, ~every
	// access hits.
	for i := 0; i < 20000; i++ {
		c.Access(uint64(rng.Intn(32<<10)) &^ 7)
	}
	warm := c.Stats()
	if warm.MissRate() > 0.1 {
		t.Errorf("miss rate %.3f too high for resident working set", warm.MissRate())
	}
	// 16 MB working set: mostly misses.
	c2 := New("t2", 64<<10, 2, 64)
	for i := 0; i < 20000; i++ {
		c2.Access(uint64(rng.Intn(16<<20)) &^ 7)
	}
	if c2.Stats().MissRate() < 0.5 {
		t.Errorf("miss rate %.3f too low for thrashing working set", c2.Stats().MissRate())
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	c := New("dm", 1<<20, 1, 128)
	a := uint64(0x100)
	b := a + 1<<20 // same set, different tag
	c.Access(a)
	c.Access(b)
	if c.Probe(a) {
		t.Error("direct-mapped conflict did not evict")
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(Default())
	addr := uint64(0x2000_0000)
	if l := h.Data(addr); l != LevelMem {
		t.Errorf("cold access level = %v, want mem", l)
	}
	if l := h.Data(addr); l != LevelL1 {
		t.Errorf("warm access level = %v, want L1", l)
	}
	// Evict from L1 by filling its set (2-way, 512 sets, 64B lines →
	// set stride 32 KB); the line stays in L2.
	h.Data(addr + 32<<10)
	h.Data(addr + 64<<10)
	if l := h.Data(addr); l != LevelL2 {
		t.Errorf("L1-evicted access level = %v, want L2", l)
	}
}

func TestHierarchyInstPath(t *testing.T) {
	h := NewHierarchy(Default())
	pc := uint64(0x400000)
	if l := h.Inst(pc); l != LevelMem {
		t.Errorf("cold fetch = %v, want mem", l)
	}
	if l := h.Inst(pc); l != LevelL1 {
		t.Errorf("warm fetch = %v, want L1", l)
	}
	// Data accesses must not pollute L1I.
	if h.L1I().Stats().Accesses != 2 {
		t.Errorf("L1I accesses = %d, want 2", h.L1I().Stats().Accesses)
	}
}

func TestLatencies(t *testing.T) {
	h := NewHierarchy(Default())
	c1, f1 := h.DataLatency(LevelL1)
	c2, f2 := h.DataLatency(LevelL2)
	cm, fm := h.DataLatency(LevelMem)
	if c1 != 2 || f1 != 0 {
		t.Errorf("L1 latency = (%d,%g), want (2,0)", c1, f1)
	}
	if c2 != 14 || f2 != 0 {
		t.Errorf("L2 latency = (%d,%g), want (14,0)", c2, f2)
	}
	if cm != 14 || fm != 80 {
		t.Errorf("mem latency = (%d,%g), want (14,80)", cm, fm)
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMem.String() != "mem" {
		t.Error("bad level names")
	}
	if Level(9).String() == "" {
		t.Error("out-of-range level must format")
	}
}

func TestAccessNeverPanics(t *testing.T) {
	h := NewHierarchy(Default())
	f := func(addr uint64) bool {
		h.Data(addr)
		h.Inst(addr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { New("x", 0, 2, 64) },
		func() { New("x", 1000, 2, 60) },  // non-pow2 line
		func() { New("x", 96*64, 2, 64) }, // non-pow2 sets
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFillDoesNotCountDemandStats(t *testing.T) {
	c := New("t", 1<<10, 2, 64)
	before := c.Stats()
	if c.Fill(0x1000) {
		t.Error("cold fill reported resident")
	}
	if !c.Fill(0x1000) {
		t.Error("warm fill reported non-resident")
	}
	after := c.Stats()
	if after.Accesses != before.Accesses || after.Misses != before.Misses {
		t.Error("Fill counted demand accesses")
	}
	if !c.Probe(0x1000) {
		t.Error("filled line not resident")
	}
}

func TestPrefetchDataWarmsBothLevels(t *testing.T) {
	h := NewHierarchy(Default())
	h.PrefetchData(0x4000)
	if l := h.Data(0x4000); l != LevelL1 {
		t.Errorf("post-prefetch access level = %v, want L1", l)
	}
}

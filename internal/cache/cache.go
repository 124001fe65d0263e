// Package cache implements the simulated memory hierarchy: generic
// set-associative caches with LRU replacement, composed into the
// Table-1 hierarchy (64 KB 2-way L1 instruction and data caches, a
// 1 MB direct-mapped unified L2, and main memory as an external
// asynchronous domain with a fixed access latency). The model tracks
// residency only: loads and stores allocate alike, and writebacks of
// evicted lines are not modelled, so they cost no latency.
package cache

import "fmt"

// Level identifies where in the hierarchy an access was satisfied.
type Level int

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "mem"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Stats counts cache events.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative, allocate-on-miss cache with true-LRU
// replacement. It keeps no dirty state: a store is an access like a
// load, and an eviction writes nothing back.
type Cache struct {
	sets     int
	ways     int
	lineBits uint
	setBits  uint
	setMask  uint64

	tags []uint64 // sets*ways; tag+1 stored so 0 means invalid
	age  []uint32 // larger = older

	stats Stats
}

// New creates a cache. size and lineSize are in bytes; size must be
// sets*ways*lineSize with power-of-two sets and lineSize.
func New(name string, size, ways, lineSize int) *Cache {
	if ways <= 0 || lineSize <= 0 || size <= 0 {
		panic(fmt.Sprintf("cache %s: non-positive geometry", name))
	}
	if lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", name, lineSize))
	}
	sets := size / (ways * lineSize)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets (from size %d, ways %d, line %d) not a power of two",
			name, sets, size, ways, lineSize))
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	setBits := uint(0)
	for 1<<setBits < sets {
		setBits++
	}
	n := sets * ways
	return &Cache{
		sets: sets, ways: ways, lineBits: lineBits,
		setBits: setBits, setMask: uint64(sets - 1),
		tags: make([]uint64, n), age: make([]uint32, n),
	}
}

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	// Sets are a power of two (New enforces it), so the modulo/divide
	// pair reduces to mask/shift — this is the per-access hot path.
	line := addr >> c.lineBits
	return int(line & c.setMask), line>>c.setBits + 1 // +1 so 0 = invalid
}

// Access looks up addr, allocating the line on a miss, and reports
// whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	if c.Fill(addr) {
		return true
	}
	c.stats.Misses++
	return false
}

// Fill allocates the line containing addr without counting a demand
// access — the prefetch path. It reports whether the line was already
// resident.
func (c *Cache) Fill(addr uint64) (wasResident bool) {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			c.touch(base, w)
			return true
		}
	}
	// Choose victim: first invalid way, else oldest.
	victim := 0
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			victim = w
			break
		}
		if c.age[base+w] > c.age[base+victim] {
			victim = w
		}
	}
	c.tags[base+victim] = tag
	c.touch(base, victim)
	return false
}

func (c *Cache) touch(base, w int) {
	for i := 0; i < c.ways; i++ {
		c.age[base+i]++
	}
	c.age[base+w] = 0
}

// Config describes the full hierarchy; zero values fall back to the
// Table-1 defaults via Default().
type Config struct {
	L1ISize, L1IWays, L1ILine int
	L1DSize, L1DWays, L1DLine int
	L2Size, L2Ways, L2Line    int
	// L1Latency and L2Latency are access latencies in cycles of the
	// accessing domain (Table 1: 2-cycle L1, 12-cycle L2).
	L1Latency, L2Latency int
	// MemFirstChunkNS is the frequency-independent main-memory latency
	// in nanoseconds (Table 1: 80 ns first chunk).
	MemFirstChunkNS float64
}

// Validate checks every cache geometry against the constraints New
// enforces with panics, so misconfigured hierarchies surface as errors
// at the API boundary instead of panics mid-construction.
func (c Config) Validate() error {
	check := func(name string, size, ways, lineSize int) error {
		if ways <= 0 || lineSize <= 0 || size <= 0 {
			return fmt.Errorf("cache %s: non-positive geometry (size %d, ways %d, line %d)", name, size, ways, lineSize)
		}
		if lineSize&(lineSize-1) != 0 {
			return fmt.Errorf("cache %s: line size %d not a power of two", name, lineSize)
		}
		sets := size / (ways * lineSize)
		if sets <= 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("cache %s: %d sets (from size %d, ways %d, line %d) not a power of two",
				name, sets, size, ways, lineSize)
		}
		return nil
	}
	if err := check("L1I", c.L1ISize, c.L1IWays, c.L1ILine); err != nil {
		return err
	}
	if err := check("L1D", c.L1DSize, c.L1DWays, c.L1DLine); err != nil {
		return err
	}
	if err := check("L2", c.L2Size, c.L2Ways, c.L2Line); err != nil {
		return err
	}
	if c.L1Latency < 0 || c.L2Latency < 0 || c.MemFirstChunkNS < 0 {
		return fmt.Errorf("cache: negative latency")
	}
	return nil
}

// Default returns the Table-1 hierarchy configuration.
func Default() Config {
	return Config{
		L1ISize: 64 << 10, L1IWays: 2, L1ILine: 64,
		L1DSize: 64 << 10, L1DWays: 2, L1DLine: 64,
		L2Size: 1 << 20, L2Ways: 1, L2Line: 128,
		L1Latency: 2, L2Latency: 12,
		MemFirstChunkNS: 80,
	}
}

// Hierarchy composes the instruction and data paths over a shared L2.
// It holds its caches by value, so a Hierarchy held by value in its
// owner keeps the caches' counters in the owner's allocation. A
// Hierarchy holds no pointer to itself and may be copied before use.
type Hierarchy struct {
	cfg Config
	l1i Cache
	l1d Cache
	l2  Cache
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		l1i: *New("L1I", cfg.L1ISize, cfg.L1IWays, cfg.L1ILine),
		l1d: *New("L1D", cfg.L1DSize, cfg.L1DWays, cfg.L1DLine),
		l2:  *New("L2", cfg.L2Size, cfg.L2Ways, cfg.L2Line),
	}
}

// L1I, L1D and L2 expose the component caches for statistics.
func (h *Hierarchy) L1I() *Cache { return &h.l1i }

// L1D returns the L1 data cache.
func (h *Hierarchy) L1D() *Cache { return &h.l1d }

// L2 returns the unified second-level cache.
func (h *Hierarchy) L2() *Cache { return &h.l2 }

// Data performs a data access, load or store, and returns the
// satisfying level.
func (h *Hierarchy) Data(addr uint64) Level {
	if h.l1d.Access(addr) {
		return LevelL1
	}
	if h.l2.Access(addr) {
		return LevelL2
	}
	return LevelMem
}

// PrefetchData pulls the line containing addr into L1D and L2 without
// counting demand accesses (the next-line prefetcher path).
func (h *Hierarchy) PrefetchData(addr uint64) {
	h.l1d.Fill(addr)
	h.l2.Fill(addr)
}

// Inst performs an instruction fetch access.
func (h *Hierarchy) Inst(pc uint64) Level {
	if h.l1i.Access(pc) {
		return LevelL1
	}
	if h.l2.Access(pc) {
		return LevelL2
	}
	return LevelMem
}

// DataLatency converts a data-access level into (cycles in the
// accessing domain, frequency-independent nanoseconds). The cycle
// component scales with domain frequency; the nanosecond component is
// the asynchronous main-memory time (the t1 term of the paper's µ–f
// model).
func (h *Hierarchy) DataLatency(l Level) (cycles int, fixedNS float64) {
	switch l {
	case LevelL1:
		return h.cfg.L1Latency, 0
	case LevelL2:
		return h.cfg.L1Latency + h.cfg.L2Latency, 0
	default:
		return h.cfg.L1Latency + h.cfg.L2Latency, h.cfg.MemFirstChunkNS
	}
}

// InstLatency converts an instruction-fetch level the same way.
func (h *Hierarchy) InstLatency(l Level) (cycles int, fixedNS float64) {
	return h.DataLatency(l)
}

package mcd

import "mcddvfs/internal/layout"

// storeCounter counts in-flight stores per 8-byte-aligned address,
// backing store-to-load forwarding. It replaces the previous
// map[uint64]int with a fixed-size open-addressed table (linear probing,
// backward-shift deletion) sized to the LS retire buffer, so the
// per-instruction hot path never hashes through the runtime map or
// allocates. At most LSQSize stores are in flight at once and the table
// is sized to 4x that, keeping probe chains short.
type storeCounter struct {
	keys   []uint64
	counts []int32
	mask   uint64
	shift  uint
}

// newStoreCounter builds a table for at most capacity concurrent keys.
func newStoreCounter(capacity int) storeCounter {
	size := 8
	for size < 4*capacity {
		size <<= 1
	}
	shift := uint(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	return storeCounter{
		keys:   layout.Slice[uint64](size),
		counts: layout.Slice[int32](size),
		mask:   uint64(size - 1),
		shift:  shift,
	}
}

// home is the key's preferred slot (Fibonacci hashing: the aligned
// addresses that arrive here differ only in a few middle bits, which a
// multiplicative hash spreads well).
func (s *storeCounter) home(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> s.shift
}

// incr adds one in-flight store at key.
func (s *storeCounter) incr(key uint64) {
	i := s.home(key)
	for {
		if s.counts[i] == 0 {
			s.keys[i] = key
			s.counts[i] = 1
			return
		}
		if s.keys[i] == key {
			s.counts[i]++
			return
		}
		i = (i + 1) & s.mask
	}
}

// count returns the number of in-flight stores at key.
func (s *storeCounter) count(key uint64) int32 {
	i := s.home(key)
	for {
		if s.counts[i] == 0 {
			return 0
		}
		if s.keys[i] == key {
			return s.counts[i]
		}
		i = (i + 1) & s.mask
	}
}

// decr retires one in-flight store at key, removing the entry when the
// count reaches zero.
func (s *storeCounter) decr(key uint64) {
	i := s.home(key)
	for s.counts[i] != 0 && s.keys[i] != key {
		i = (i + 1) & s.mask
	}
	if s.counts[i] == 0 {
		return // decr of an untracked key; mirrors the old map's no-op
	}
	if s.counts[i]--; s.counts[i] > 0 {
		return
	}
	s.erase(i)
}

// erase deletes the entry at slot i using backward-shift deletion, which
// keeps every remaining entry reachable from its home slot without
// tombstones.
func (s *storeCounter) erase(i uint64) {
	j := i
	for {
		j = (j + 1) & s.mask
		if s.counts[j] == 0 {
			s.counts[i] = 0
			return
		}
		h := s.home(s.keys[j])
		// Move entry j back to the freed slot unless its home lies
		// cyclically within (i, j], in which case it is already as close
		// to home as it can get.
		if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			s.keys[i] = s.keys[j]
			s.counts[i] = s.counts[j]
			i = j
		}
	}
}

// Package layout holds the memory-layout rule that keeps a chip's
// cores from slowing each other down. A chip advances its cores on
// parallel goroutines; when one core writes a cache line that another
// core's state shares, the line bounces between the CPUs on every
// write (false sharing). So no state a core writes on its edge path
// may share a Block with another core's state.
//
// Go's allocator places every object of a size class in page-aligned
// spans at multiples of the class size. Every size class above 704
// bytes is a whole number of Blocks, as are the classes 128, 256, 384,
// 512 and 640, so an allocation of a whole number of Blocks starts on
// a Block boundary and shares no Block with any other allocation.
// The rule is kept in two ways: small hot structures are held by
// value inside a large per-core owner (mcd.Processor holds its engine,
// domains, queues, meters and samplers), and what must be a separate
// object is sized in whole Blocks (Slice, and the padded controller
// and trace-source types).
package layout

import "unsafe"

// Block is the unit of isolation in bytes: two 64-byte cache lines,
// because the adjacent-line prefetcher fetches lines in pairs.
const Block = 128

// Slice returns a zeroed slice of length n whose backing array fills
// whole Blocks, so it shares no Block with any other allocation. Its
// capacity may exceed n.
func Slice[T any](n int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if size == 0 || n <= 0 {
		return make([]T, n)
	}
	// A capacity that is a multiple of step fills whole Blocks.
	step := Block
	for step%2 == 0 && size*step/2%Block == 0 {
		step /= 2
	}
	c := roundUp(n, step)
	if b := c * size; b > 512 && b < 768 {
		// A pointerful object above 512 bytes carries an 8-byte
		// allocation header, which would push a 640-byte array into
		// the 704-byte class; from 768 bytes every class is whole
		// Blocks, header or not.
		c = roundUp((768+size-1)/size, step)
	}
	return make([]T, n, c)
}

func roundUp(n, step int) int { return (n + step - 1) / step * step }

package layout

import (
	"testing"
	"unsafe"
)

func TestSliceFillsWholeBlocks(t *testing.T) {
	check := func(name string, n, size, capacity int) {
		t.Helper()
		if capacity < n {
			t.Errorf("%s: Slice(%d) has capacity %d", name, n, capacity)
		}
		if b := capacity * size; b%Block != 0 || (b > 512 && b < 768) {
			t.Errorf("%s: Slice(%d) holds %d bytes", name, n, b)
		}
	}
	for n := 1; n <= 300; n++ {
		check("uint8", n, 1, cap(Slice[uint8](n)))
		check("int64", n, 8, cap(Slice[int64](n)))
		check("[3]int64", n, 24, cap(Slice[[3]int64](n)))
		check("[5]*int", n, 40, cap(Slice[[5]*int](n)))
		check("[7]int16", n, 14, cap(Slice[[7]int16](n)))
	}
	if s := Slice[int64](0); len(s) != 0 {
		t.Errorf("Slice(0) has length %d", len(s))
	}
	if s := Slice[int64](5); len(s) != 5 {
		t.Errorf("Slice(5) has length %d", len(s))
	}
	if p := uintptr(unsafe.Pointer(unsafe.SliceData(Slice[int64](3)))); p%Block != 0 {
		t.Errorf("Slice(3) starts at %#x, not on a Block boundary", p)
	}
}

package mcd

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"mcddvfs/internal/bpred"
	"mcddvfs/internal/control"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/layout"
	"mcddvfs/internal/trace"
)

// heapObject is one object reachable from a core: where it starts,
// its size, its type and the path it was reached by.
type heapObject struct {
	ptr  unsafe.Pointer
	size uintptr
	typ  reflect.Type
	path string
}

func (o heapObject) addr() uintptr { return uintptr(o.ptr) }

// reachable appends every object reachable from v through pointers,
// interfaces, slices, arrays and struct fields, each once per seen
// set. Maps, strings and funcs are not followed: the simulator keeps
// no edge-path state in them.
func reachable(v reflect.Value, path string, seen map[uintptr]bool, out *[]heapObject) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		e := v.Elem()
		*out = append(*out, heapObject{v.UnsafePointer(), e.Type().Size(), e.Type(), path})
		reachable(e, path, seen, out)
	case reflect.Interface:
		if !v.IsNil() {
			reachable(v.Elem(), path, seen, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.CanAddr() {
				f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			}
			reachable(f, path+"."+v.Type().Field(i).Name, seen, out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			reachable(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen, out)
		}
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		if !seen[v.Pointer()] {
			seen[v.Pointer()] = true
			size := uintptr(v.Cap()) * v.Type().Elem().Size()
			*out = append(*out, heapObject{v.UnsafePointer(), size, v.Type(), path})
		}
		for i := 0; i < v.Len(); i++ {
			reachable(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen, out)
		}
	}
}

// coldTypes are the per-core objects the edge path only reads: the
// branch predictor's headers (its tables are written, and checked).
// TestChipCoresShareNoCacheLine checks that a run leaves them unchanged.
var coldTypes = map[reflect.Type]bool{
	reflect.TypeOf(bpred.Unit{}):     true,
	reflect.TypeOf(bpred.Combined{}): true,
	reflect.TypeOf(bpred.TwoLevel{}): true,
	reflect.TypeOf(bpred.Bimodal{}):  true,
	reflect.TypeOf(bpred.BTB{}):      true,
}

// objectBytes returns a copy of o's bytes.
func objectBytes(o heapObject) []byte {
	return bytes.Clone(unsafe.Slice((*byte)(o.ptr), o.size))
}

// TestChipCoresShareNoCacheLine holds the per-core layout rule of
// internal/layout on a 4-core chip with the paper's controllers and
// recorded sources: no 128-byte block that holds state one core writes
// on its edge path holds any state of another core. It walks every
// object reachable from each core (its Processor, its controllers and
// source, and the chip's run slot) after construction and again after
// a run, when every growing slice has grown; the read-only objects
// exempt as writers (coldTypes) must come out of the run unchanged.
func TestChipCoresShareNoCacheLine(t *testing.T) {
	benches := []string{"epic_decode", "gzip", "swim", "adpcm_encode"}
	cfg := ChipConfig{Cores: make([]Config, len(benches))}
	for i := range cfg.Cores {
		cfg.Cores[i] = DefaultConfig()
		cfg.Cores[i].Seed += int64(i)
	}
	chip, err := NewChip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]trace.Source, len(benches))
	for i, name := range benches {
		for d := 0; d < isa.NumExecDomains; d++ {
			dom := isa.ExecDomain(d)
			chip.Core(i).Attach(dom, control.NewAdaptive(control.DefaultConfig(dom)))
		}
		prof, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := trace.RecordProfile(prof, trace.StreamSeed(int64(i)), 20000)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = rec.Replay()
	}
	// check walks each core's reachable objects, reports every block
	// that breaks the rule, and returns the objects.
	check := func(when string) [][]heapObject {
		cores := make([][]heapObject, chip.Cores())
		for i := range cores {
			seen := map[uintptr]bool{}
			for _, root := range []any{chip.cores[i], &chip.runs[i], srcs[i]} {
				reachable(reflect.ValueOf(root), fmt.Sprintf("core %d ", i), seen, &cores[i])
			}
		}
		// Objects more than one core reaches belong to none.
		owners := map[uintptr]map[int]bool{}
		for i, objs := range cores {
			for _, o := range objs {
				if owners[o.addr()] == nil {
					owners[o.addr()] = map[int]bool{}
				}
				owners[o.addr()][i] = true
			}
		}
		type blockUse struct {
			core int
			o    heapObject
		}
		blocks := map[uintptr][]blockUse{}
		for i, objs := range cores {
			for _, o := range objs {
				if o.size == 0 || len(owners[o.addr()]) > 1 {
					continue
				}
				for b := o.addr() / layout.Block; b <= (o.addr()+o.size-1)/layout.Block; b++ {
					blocks[b] = append(blocks[b], blockUse{i, o})
				}
			}
		}
	blockLoop:
		for b, uses := range blocks {
			for _, w := range uses {
				if coldTypes[w.o.typ] {
					continue
				}
				for _, u := range uses {
					if u.core != w.core {
						t.Errorf("%s: block %#x holds %s (%v) and %s (%v)",
							when, b*layout.Block, w.o.path, w.o.typ, u.o.path, u.o.typ)
						continue blockLoop
					}
				}
			}
		}
		return cores
	}
	cold := map[uintptr][]byte{}
	for _, objs := range check("after construction") {
		for _, o := range objs {
			if coldTypes[o.typ] {
				cold[o.addr()] = objectBytes(o)
			}
		}
	}
	if len(cold) == 0 {
		t.Fatal("the walk found no branch-predictor headers")
	}
	if _, err := chip.Run(srcs); err != nil {
		t.Fatal(err)
	}
	for _, objs := range check("after a run") {
		for _, o := range objs {
			if before, ok := cold[o.addr()]; ok && coldTypes[o.typ] && !bytes.Equal(before, objectBytes(o)) {
				t.Errorf("%s (%v) changed during the run; it is not read-only", o.path, o.typ)
			}
		}
	}
}

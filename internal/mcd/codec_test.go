package mcd_test

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mcddvfs/internal/control"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/power"
	"mcddvfs/internal/trace"
)

// entry is what the disk cache needs of a stored value.
type entry interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// filler sets every field reflection can reach to a distinct non-zero
// value: each map and slice gets entries, each pointer a target.
type filler struct {
	tb   testing.TB
	next int
}

func (f *filler) fill(v reflect.Value) {
	f.next++
	k := f.next
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%03d", k))
	case reflect.Float64:
		v.SetFloat(float64(k) + 0.25)
	case reflect.Int, reflect.Int64:
		v.SetInt(-int64(k) * 1_000_003)
	case reflect.Uint16:
		v.SetUint(uint64(k))
	case reflect.Uint64:
		v.SetUint(uint64(k) << 40)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).CanSet() {
				f.tb.Fatalf("%s.%s is unexported: the entry codec cannot carry it", v.Type(), v.Type().Field(i).Name)
			}
			f.fill(v.Field(i))
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 3; i++ {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(key)
			f.fill(val)
			m.SetMapIndex(key, val)
		}
		v.Set(m)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 3, 3)
		for i := 0; i < s.Len(); i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	default:
		f.tb.Fatalf("no fill for %s: teach the filler and the entry codec the new field type", v.Type())
	}
}

// filled returns a value of T with every exported field set.
func filled[T any](tb testing.TB) *T {
	tb.Helper()
	v := new(T)
	(&filler{tb: tb}).fill(reflect.ValueOf(v).Elem())
	return v
}

// roundTrip encodes in, decodes it into out, and checks that out
// encodes to the same bytes.
func roundTrip(t *testing.T, in, out entry) {
	t.Helper()
	blob, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.UnmarshalBinary(blob); err != nil {
		t.Fatalf("decoding %T: %v", in, err)
	}
	again, err := out.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Errorf("%T: encode → decode → encode changed the bytes (%d → %d)", in, len(blob), len(again))
	}
}

// TestEntryCodecCoversEveryField fills every exported field of Result
// and ChipResult, through DomainStats, power.Metrics, FreqPoint and
// EpochSample, with a distinct non-zero value and asserts the entry
// codec carries all of them: a field added to any of these types and
// not encoded decodes as zero and fails here.
func TestEntryCodecCoversEveryField(t *testing.T) {
	r := filled[mcd.Result](t)
	var gotR mcd.Result
	roundTrip(t, r, &gotR)
	if !reflect.DeepEqual(*r, gotR) {
		t.Errorf("Result round trip:\n got %+v\nwant %+v", gotR, *r)
	}

	c := filled[mcd.ChipResult](t)
	var gotC mcd.ChipResult
	roundTrip(t, c, &gotC)
	if !reflect.DeepEqual(*c, gotC) {
		t.Errorf("ChipResult round trip:\n got %+v\nwant %+v", gotC, *c)
	}
}

// gobResult and gobChip are Result and ChipResult without the entry
// codec, so gob encodes them field by field as it stored them before
// the codec: the oracle the codec's decoded values must match.
type gobResult mcd.Result

type gobChip struct {
	Cores      []*gobResult
	Metrics    power.Metrics
	PowerCapW  float64
	EpochTrace []mcd.EpochSample
}

// gobOracle round-trips r through gob.
func gobOracle(t *testing.T, r *mcd.Result) *mcd.Result {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode((*gobResult)(r)); err != nil {
		t.Fatal(err)
	}
	var out gobResult
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return (*mcd.Result)(&out)
}

// gobChipOracle round-trips c through gob.
func gobChipOracle(t *testing.T, c *mcd.ChipResult) *mcd.ChipResult {
	t.Helper()
	chipT, gobT := reflect.TypeOf(mcd.ChipResult{}), reflect.TypeOf(gobChip{})
	if chipT.NumField() != gobT.NumField() {
		t.Fatalf("ChipResult has %d fields, the gob oracle %d", chipT.NumField(), gobT.NumField())
	}
	for i := 0; i < chipT.NumField(); i++ {
		if chipT.Field(i).Name != gobT.Field(i).Name {
			t.Fatalf("ChipResult field %d is %s, the gob oracle's %s", i, chipT.Field(i).Name, gobT.Field(i).Name)
		}
	}
	in := gobChip{Metrics: c.Metrics, PowerCapW: c.PowerCapW, EpochTrace: c.EpochTrace}
	for _, core := range c.Cores {
		in.Cores = append(in.Cores, (*gobResult)(core))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatal(err)
	}
	var out gobChip
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	res := &mcd.ChipResult{Metrics: out.Metrics, PowerCapW: out.PowerCapW, EpochTrace: out.EpochTrace}
	for _, core := range out.Cores {
		res.Cores = append(res.Cores, (*mcd.Result)(core))
	}
	return res
}

// adaptiveRun simulates one controlled single-core cell.
func adaptiveRun(t *testing.T, bench string, insts int64) *mcd.Result {
	t.Helper()
	cfg := mcd.DefaultConfig()
	p, err := mcd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < isa.NumExecDomains; d++ {
		dom := isa.ExecDomain(d)
		p.Attach(dom, control.NewAdaptive(control.DefaultConfig(dom)))
	}
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(prof, cfg.Seed+100, insts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEntryCodecMatchesGob asserts the entry codec decodes exactly what
// a gob round trip gives — the values the disk cache served before the
// codec replaced gob — for simulated single-core and governed chip
// cells and for the empty and nil shapes gob folds: a zero-length map,
// slice or series decodes to nil.
func TestEntryCodecMatchesGob(t *testing.T) {
	single := adaptiveRun(t, "gzip", 20000)
	if len(single.FreqTrace) == 0 || len(single.QueueSamples) == 0 {
		t.Fatal("simulated cell recorded no series")
	}
	empty := &mcd.Result{
		Domains:         map[string]mcd.DomainStats{},
		QueueSamples:    map[string]mcd.Series{mcd.NameInt: {}, mcd.NameFP: nil},
		FreqTrace:       map[string]mcd.FreqSeries{mcd.NameLS: {}},
		QueueFullStalls: map[string]uint64{},
		RetiredByClass:  map[string]int64{"ialu": 0},
	}
	for name, r := range map[string]*mcd.Result{"simulated": single, "zero": {}, "empty": empty} {
		var got mcd.Result
		roundTrip(t, r, &got)
		if want := gobOracle(t, r); !reflect.DeepEqual(&got, want) {
			t.Errorf("%s Result: entry codec and gob disagree:\n codec %+v\n gob   %+v", name, got, *want)
		}
	}

	chip := governedChipRun(t, 0)
	emptyChip := &mcd.ChipResult{
		Cores:      []*mcd.Result{{}, empty},
		EpochTrace: []mcd.EpochSample{{CorePowerW: []float64{}, CapMHz: []float64{0, math.Copysign(0, -1)}, CoreInsts: []int64{}}},
	}
	for name, c := range map[string]*mcd.ChipResult{"governed": chip, "zero": {}, "empty": emptyChip} {
		var got mcd.ChipResult
		roundTrip(t, c, &got)
		if want := gobChipOracle(t, c); !reflect.DeepEqual(&got, want) {
			t.Errorf("%s ChipResult: entry codec and gob disagree:\n codec %+v\n gob   %+v", name, got, *want)
		}
	}
}

// TestEntryCodecRejectsNilCore asserts a ChipResult with a nil core,
// which has no encoding, fails to encode rather than writing a value
// that decodes differently.
func TestEntryCodecRejectsNilCore(t *testing.T) {
	if _, err := (&mcd.ChipResult{Cores: []*mcd.Result{nil}}).MarshalBinary(); err == nil {
		t.Error("encoded a nil core")
	}
}

// elements counts what a decoded value holds: map entries, slice
// elements and string bytes, through pointers and structs.
func elements(v reflect.Value) int {
	switch v.Kind() {
	case reflect.String:
		return v.Len()
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return elements(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += elements(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := v.Len()
		for i := 0; i < v.Len(); i++ {
			n += elements(v.Index(i))
		}
		return n
	case reflect.Map:
		n := v.Len()
		for it := v.MapRange(); it.Next(); {
			n += elements(it.Key()) + elements(it.Value())
		}
		return n
	}
	return 0
}

// FuzzEntryCodec feeds arbitrary bytes to the Result and ChipResult
// decoders. Neither may panic or hold more elements than the input has
// bytes (every element costs at least one), and anything they accept
// must be the canonical encoding of what they decoded: it re-encodes to
// the same bytes.
func FuzzEntryCodec(f *testing.F) {
	for _, v := range []entry{&mcd.Result{}, filled[mcd.Result](f), &mcd.ChipResult{}, filled[mcd.ChipResult](f)} {
		blob, err := v.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []entry{&mcd.Result{}, &mcd.ChipResult{}} {
			if err := v.UnmarshalBinary(data); err != nil {
				continue
			}
			if n := elements(reflect.ValueOf(v)); n > len(data) {
				t.Fatalf("%T: %d elements from %d bytes", v, n, len(data))
			}
			blob, err := v.MarshalBinary()
			if err != nil {
				t.Fatalf("%T: re-encode: %v", v, err)
			}
			if !bytes.Equal(blob, data) {
				t.Fatalf("%T: accepted %x, which re-encodes to %x", v, data, blob)
			}
		}
	})
}

package mcd_test

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"encoding/json"
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

var seriesType = reflect.TypeOf(mcd.Series{})

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
	case reflect.Uint64:
		v.SetUint(uint64(k) << 40)
	case reflect.Struct:
		if v.Type() == seriesType {
			// An opaque series: distinct samples, one above 255 so the
			// wide form is covered too.
			v.Set(reflect.ValueOf(mcd.NewSeries([]uint16{uint16(k), uint16(k + 1), uint16(k + 300)})))
			return
		}
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

// plainResult is Result with each occupancy series held as its
// samples, the shape gob and encoding/json saw before Series held its
// own section; plainChip is ChipResult over it. Neither has the entry
// codec, so gob encodes them field by field as it stored them before
// the codec: the oracle the codec's decoded values must match.
type plainResult struct {
	Benchmark            string
	Scheme               string
	Metrics              power.Metrics
	Domains              map[string]mcd.DomainStats
	QueueSamples         map[string][]uint16
	FreqTrace            map[string]mcd.FreqSeries
	IPC                  float64
	BranchMispredictRate float64
	L1DMissRate          float64
	L2MissRate           float64
	L1IMissRate          float64
	QueueFullStalls      map[string]uint64
	ForwardedLoads       uint64
	RetiredByClass       map[string]int64
}

type plainChip struct {
	Cores      []*plainResult
	Metrics    power.Metrics
	PowerCapW  float64
	EpochTrace []mcd.EpochSample
}

// sameShape fails unless plain has a's fields, by name and in order,
// with the same types except where a holds a Series.
func sameShape(t testing.TB, a, plain reflect.Type) {
	t.Helper()
	if a.NumField() != plain.NumField() {
		t.Fatalf("%s has %d fields, its plain mirror %d", a, a.NumField(), plain.NumField())
	}
	for i := 0; i < a.NumField(); i++ {
		fa, fp := a.Field(i), plain.Field(i)
		if fa.Name != fp.Name {
			t.Fatalf("%s field %d is %s, the plain mirror's %s", a, i, fa.Name, fp.Name)
		}
		if fa.Type != fp.Type && fa.Type != reflect.TypeOf(map[string]mcd.Series(nil)) && fa.Type != reflect.TypeOf([]*mcd.Result(nil)) {
			t.Fatalf("%s.%s is %s, the plain mirror's %s", a, fa.Name, fa.Type, fp.Type)
		}
	}
}

// copyOther sets each field of dst but the one named skip to src's
// field of the same index.
func copyOther(dst, src reflect.Value, skip string) {
	for i := 0; i < src.NumField(); i++ {
		if src.Type().Field(i).Name != skip {
			dst.Field(i).Set(src.Field(i))
		}
	}
}

// toPlain returns r with each series as its samples.
func toPlain(t testing.TB, r *mcd.Result) *plainResult {
	t.Helper()
	sameShape(t, reflect.TypeOf(*r), reflect.TypeOf(plainResult{}))
	p := new(plainResult)
	copyOther(reflect.ValueOf(p).Elem(), reflect.ValueOf(r).Elem(), "QueueSamples")
	if r.QueueSamples != nil {
		p.QueueSamples = make(map[string][]uint16, len(r.QueueSamples))
		for k, s := range r.QueueSamples {
			p.QueueSamples[k] = mcd.SeriesSamples(s)
		}
	}
	return p
}

// fromPlain is toPlain's inverse.
func fromPlain(p *plainResult) *mcd.Result {
	r := new(mcd.Result)
	copyOther(reflect.ValueOf(r).Elem(), reflect.ValueOf(p).Elem(), "QueueSamples")
	if p.QueueSamples != nil {
		r.QueueSamples = make(map[string]mcd.Series, len(p.QueueSamples))
		for k, v := range p.QueueSamples {
			r.QueueSamples[k] = mcd.NewSeries(v)
		}
	}
	return r
}

// TestPlainMirrorRoundTrip asserts toPlain and fromPlain lose nothing,
// so the gob and JSON oracles compare every field.
func TestPlainMirrorRoundTrip(t *testing.T) {
	r := filled[mcd.Result](t)
	if got := fromPlain(toPlain(t, r)); !reflect.DeepEqual(got, r) {
		t.Errorf("plain mirror round trip:\n got %+v\nwant %+v", *got, *r)
	}
}

// gobOracle round-trips r through gob.
func gobOracle(t *testing.T, r *mcd.Result) *mcd.Result {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(toPlain(t, r)); err != nil {
		t.Fatal(err)
	}
	var out plainResult
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return fromPlain(&out)
}

// gobChipOracle round-trips c through gob.
func gobChipOracle(t *testing.T, c *mcd.ChipResult) *mcd.ChipResult {
	t.Helper()
	sameShape(t, reflect.TypeOf(*c), reflect.TypeOf(plainChip{}))
	in := plainChip{Metrics: c.Metrics, PowerCapW: c.PowerCapW, EpochTrace: c.EpochTrace}
	for _, core := range c.Cores {
		in.Cores = append(in.Cores, toPlain(t, core))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatal(err)
	}
	var out plainChip
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	res := &mcd.ChipResult{Metrics: out.Metrics, PowerCapW: out.PowerCapW, EpochTrace: out.EpochTrace}
	for _, core := range out.Cores {
		res.Cores = append(res.Cores, fromPlain(core))
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
		QueueSamples:    map[string]mcd.Series{mcd.NameInt: mcd.NewSeries([]uint16{}), mcd.NameFP: {}},
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

// heldSeries returns the occupancy series v holds.
func heldSeries(v entry) []mcd.Series {
	var cores []*mcd.Result
	switch v := v.(type) {
	case *mcd.Result:
		cores = []*mcd.Result{v}
	case *mcd.ChipResult:
		cores = v.Cores
	}
	var out []mcd.Series
	for _, r := range cores {
		for _, s := range r.QueueSamples {
			out = append(out, s)
		}
	}
	return out
}

// seriesResult is a Result holding one series of samples.
func seriesResult(samples []uint16) *mcd.Result {
	return &mcd.Result{Benchmark: "gzip", QueueSamples: map[string]mcd.Series{mcd.NameFP: mcd.NewSeries(samples)}}
}

// FuzzEntryCodec feeds arbitrary bytes to the Result and ChipResult
// decoders. Neither may panic or hold more bytes than the input has
// (every element costs at least one; a series holds its section), a
// runs section of k bytes may not claim more than 128·k samples, and
// anything they accept must be the canonical encoding of what they
// decoded: it re-encodes to the same bytes.
func FuzzEntryCodec(f *testing.F) {
	runs := make([]uint16, 700)
	for i := range runs {
		runs[i] = uint16(i / 300)
	}
	for _, v := range []entry{
		&mcd.Result{}, filled[mcd.Result](f), &mcd.ChipResult{}, filled[mcd.ChipResult](f),
		seriesResult(runs), seriesResult([]uint16{0, 256, 65535}),
	} {
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
			for _, s := range heldSeries(v) {
				if k := mcd.SeriesSectionLen(s); s.Len() > 128*k {
					t.Fatalf("%T: series of %d samples in a %d-byte section", v, s.Len(), k)
				}
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

// TestResultJSONMatchesSamples asserts json.Marshal of a Result whose
// series take each form (runs, packed, wide, empty, nil) writes the
// bytes the same samples give as []uint16, as they were before Series
// held its section: JSON digests of results do not move.
func TestResultJSONMatchesSamples(t *testing.T) {
	r := adaptiveRun(t, "gzip", 20000)
	r.QueueSamples["runs"] = mcd.NewSeries(append(make([]uint16, 600), 3, 3, 3))
	r.QueueSamples["packed"] = mcd.NewSeries([]uint16{0, 1, 9, 10, 99, 100, 255})
	var ramp, triples []uint16
	for v := uint16(0); v < 256; v++ {
		ramp = append(ramp, v)
		triples = append(triples, v, v, v)
	}
	r.QueueSamples["every byte packed"] = mcd.NewSeries(ramp)
	r.QueueSamples["every byte in runs"] = mcd.NewSeries(triples)
	r.QueueSamples["wide"] = mcd.NewSeries([]uint16{0, 256, 999, 1000, 65535})
	r.QueueSamples["empty"] = mcd.NewSeries([]uint16{})
	r.QueueSamples["nil"] = mcd.Series{}
	for _, c := range []*mcd.Result{r, {}} {
		got, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(toPlain(t, c))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("JSON of the series differs from JSON of their samples:\n got %.400s\nwant %.400s", got, want)
		}
	}
}

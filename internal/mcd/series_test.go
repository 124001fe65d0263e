package mcd

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mcddvfs/internal/isa"
)

// sameSeries compares two series sample for sample and by nil-ness.
func sameSeries(a, b Series) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

func sameFreq(a, b FreqSeries) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Insts != b[i].Insts || math.Float64bits(a[i].MHz) != math.Float64bits(b[i].MHz) {
			return false
		}
	}
	return true
}

// TestSeriesRoundTrip is the codec's property test: every series
// decodes to exactly what was encoded, in the form the packing rule
// selects, and empty series come back nil.
func TestSeriesRoundTrip(t *testing.T) {
	ramp := make(Series, 256)
	for i := range ramp {
		ramp[i] = uint16(i)
	}
	cases := []struct {
		name   string
		in     Series
		packed bool
	}{
		{"nil", nil, false},
		{"empty", Series{}, false},
		{"occupancies", Series{0, 3, 17, 255, 1, 0}, true},
		{"all bytes", ramp, true},
		{"above 255", Series{0, 255, 256}, false},
		{"uint16 extremes", Series{65535, 0, 1}, false},
	}
	for _, tc := range cases {
		blob := tc.in.appendSection(nil)
		if len(blob) != tc.in.sectionLen() {
			t.Errorf("%s: section of %d bytes, sectionLen %d", tc.name, len(blob), tc.in.sectionLen())
		}
		switch {
		case len(tc.in) == 0:
			if len(blob) != 0 {
				t.Errorf("%s: empty series encoded to %d bytes", tc.name, len(blob))
			}
		case tc.packed:
			if blob[0] != seriesPacked || len(blob) != 1+len(tc.in) {
				t.Errorf("%s: want packed form of %d bytes, got form %d, %d bytes", tc.name, 1+len(tc.in), blob[0], len(blob))
			}
		default:
			if blob[0] != seriesRaw || len(blob) != 1+8*len(tc.in) {
				t.Errorf("%s: want raw form of %d bytes, got form %d, %d bytes", tc.name, 1+8*len(tc.in), blob[0], len(blob))
			}
		}
		var out Series
		if err := out.decodeSection(blob); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		want := tc.in
		if len(want) == 0 {
			want = nil
		}
		if !sameSeries(out, want) {
			t.Errorf("%s: round trip %v -> %v", tc.name, tc.in, out)
		}
	}
}

// The section bytes the series had when it was a []float64:
// seriesPackedBytes and seriesRawBytes are the codec's own output for
// {0, 3, 17, 255} and {256, 65535, 0}.
var (
	seriesPackedBytes = []byte{0x1, 0x0, 0x3, 0x11, 0xff}
	seriesRawBytes    = []byte{0x2,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x70, 0x40,
		0x0, 0x0, 0x0, 0x0, 0xe0, 0xff, 0xef, 0x40,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}
)

// TestSeriesKeepsLegacyBytes asserts the section bytes did not change
// with the sample type or the container: the encoder writes the
// float64-era bytes, and those bytes decode to the same samples.
func TestSeriesKeepsLegacyBytes(t *testing.T) {
	packed, raw := Series{0, 3, 17, 255}, Series{256, 65535, 0}
	for _, tc := range []struct {
		in   Series
		want []byte
	}{{packed, seriesPackedBytes}, {raw, seriesRawBytes}} {
		if blob := tc.in.appendSection(nil); !bytes.Equal(blob, tc.want) {
			t.Errorf("%v encoded to %#v, want %#v", tc.in, blob, tc.want)
		}
		var out Series
		if err := out.decodeSection(tc.want); err != nil || !sameSeries(out, tc.in) {
			t.Errorf("legacy bytes %#v decoded to %v (%v), want %v", tc.want, out, err, tc.in)
		}
	}
}

// rawSeries builds the raw form of samples, as the float64-era
// encoder wrote it for any value.
func rawSeries(samples ...float64) []byte {
	buf := []byte{seriesRaw}
	for _, v := range samples {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// TestSeriesFloats asserts Floats is the exact float64 image of the
// series, and keeps nil as nil.
func TestSeriesFloats(t *testing.T) {
	if got := Series(nil).Floats(); got != nil {
		t.Errorf("nil series gave %v", got)
	}
	got := Series{0, 3, 255, 256, 65535}.Floats()
	if want := []float64{0, 3, 255, 256, 65535}; !slices.Equal(got, want) {
		t.Errorf("Floats = %v, want %v", got, want)
	}
}

// TestSeriesJSON pins the JSON form of a Result's QueueSamples: an
// array of numbers per domain, as a []float64 of occupancies gave, not
// the base64 string encoding/json writes for a byte slice.
func TestSeriesJSON(t *testing.T) {
	blob, err := json.Marshal(Result{QueueSamples: map[string]Series{NameInt: {0, 3, 255, 256, 65535}, NameFP: nil}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `"QueueSamples":{"FP":null,"INT":[0,3,255,256,65535]}`
	if !strings.Contains(string(blob), want) {
		t.Errorf("JSON Result lacks %s:\n%s", want, blob)
	}
}

func TestFreqSeriesRoundTrip(t *testing.T) {
	cases := map[string]FreqSeries{
		"nil":   nil,
		"empty": {},
		"rising": {
			{Insts: 0, MHz: 1000}, {Insts: 130, MHz: 987.5}, {Insts: 4200, MHz: 250},
		},
		"negative deltas": {
			{Insts: 5000, MHz: 600}, {Insts: 10, MHz: 700}, {Insts: -3, MHz: 800},
		},
		"extremes": {
			{Insts: math.MaxInt64, MHz: math.NaN()}, {Insts: math.MinInt64, MHz: math.Copysign(0, -1)},
			{Insts: math.MaxInt64, MHz: math.Inf(-1)},
		},
	}
	for name, in := range cases {
		blob := in.appendSection(nil)
		if len(blob) != in.sectionLen() {
			t.Errorf("%s: section of %d bytes, sectionLen %d", name, len(blob), in.sectionLen())
		}
		var out FreqSeries
		if err := out.decodeSection(blob); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		want := in
		if len(want) == 0 {
			want = nil
		}
		if !sameFreq(out, want) {
			t.Errorf("%s: round trip %v -> %v", name, in, out)
		}
	}
}

// TestSeriesRejectsMalformed asserts the decoders turn damaged input
// into errors rather than panics or oversized allocations.
func TestSeriesRejectsMalformed(t *testing.T) {
	for name, blob := range map[string][]byte{
		"form byte only":  {seriesPacked},
		"unknown form":    {0, 1, 2},
		"ragged raw body": {seriesRaw, 1, 2, 3},
		"fractional":      rawSeries(1, 0.25),
		"negative":        rawSeries(-1, 2),
		"NaN":             rawSeries(3, math.NaN()),
		"above uint16":    rawSeries(65535, 65536),
		"infinity":        rawSeries(math.Inf(1)),
		"raw that packs":  rawSeries(0, 255, 3),
		"negative zero":   rawSeries(math.Copysign(0, -1), 256),
	} {
		var s Series
		if err := s.decodeSection(blob); err == nil {
			t.Errorf("Series %s: decoded %v, want error", name, s)
		}
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	for name, blob := range map[string][]byte{
		"zero points":       {0},
		"bad length varint": {0x80},
		"count past body":   append(huge, make([]byte, 64)...),
		"missing delta":     append([]byte{1}, make([]byte, 8)...),
		"trailing bytes":    append(append([]byte{1}, make([]byte, 8)...), 0, 0),
		"bad delta varint":  append(append([]byte{1}, make([]byte, 8)...), 0x80),
		"overlong length":   append(append([]byte{0x81, 0}, make([]byte, 8)...), 0),
		"overlong delta":    append(append([]byte{1}, make([]byte, 8)...), 0x80, 0),
	} {
		var f FreqSeries
		if err := f.decodeSection(blob); err == nil {
			t.Errorf("FreqSeries %s: decoded %v, want error", name, f)
		}
	}
}

// plainResult is Result without its entry codec: gob encodes it field
// by field, series as plain slices, the way gob stored a Result before
// the entry codec replaced it.
type plainResult Result

// TestSeriesGobMatchesPlainSlices asserts the entry codec decodes a
// Result's series maps to what gob gives for plain slices: what they
// held, with a zero-length value as nil, and a plain gob round trip
// does the same.
func TestSeriesGobMatchesPlainSlices(t *testing.T) {
	in := Result{
		Benchmark:    "gzip",
		QueueSamples: map[string]Series{NameInt: {1, 2, 3}, NameFP: {}, NameLS: nil, "FetchQ": {256}},
		FreqTrace:    map[string]FreqSeries{NameInt: {{Insts: 9, MHz: 1000}}, NameFP: {}},
	}
	blob, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	if err := out.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	want := in
	want.QueueSamples = map[string]Series{NameInt: {1, 2, 3}, NameFP: nil, NameLS: nil, "FetchQ": {256}}
	want.FreqTrace = map[string]FreqSeries{NameInt: {{Insts: 9, MHz: 1000}}, NameFP: nil}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("entry codec round trip:\n got %+v\nwant %+v", out, want)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode((*plainResult)(&in)); err != nil {
		t.Fatal(err)
	}
	var gobOut plainResult
	if err := gob.NewDecoder(&buf).Decode(&gobOut); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Result(gobOut), want) {
		t.Errorf("plain gob round trip:\n got %+v\nwant %+v", gobOut, want)
	}
}

// TestSimulatedSeriesPack asserts every occupancy series a real run
// records takes the one-byte form, and that a run's series survive the
// codec exactly.
func TestSimulatedSeriesPack(t *testing.T) {
	res := runBench(t, "gsm_decode", 20000, DefaultConfig(), func(p *Processor) {
		p.exec[isa.DomainInt].SetTarget(0, 500)
	})
	for name, s := range res.QueueSamples {
		blob := s.appendSection(nil)
		if len(s) > 0 && (blob[0] != seriesPacked || len(blob) != 1+len(s)) {
			t.Errorf("%s: %d samples took %d bytes, want the packed form", name, len(s), len(blob))
		}
	}
	if len(res.FreqTrace[NameInt]) == 0 {
		t.Fatal("no frequency trace recorded")
	}
	for name, f := range res.FreqTrace {
		var out FreqSeries
		if err := out.decodeSection(f.appendSection(nil)); err != nil {
			t.Fatal(err)
		}
		want := f
		if len(want) == 0 {
			want = nil
		}
		if !sameFreq(out, want) {
			t.Errorf("%s: frequency trace changed through the codec", name)
		}
	}
}

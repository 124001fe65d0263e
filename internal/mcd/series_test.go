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
		blob, err := tc.in.GobEncode()
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
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
		if err := out.GobDecode(blob); err != nil {
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

// Gob bytes written when Series was a []float64, so that cache entries
// from before the two-byte samples keep decoding. seriesPackedBytes and
// seriesRawBytes are the codec's own output for {0, 3, 17, 255} and
// {256, 65535, 0}; legacyStream is a gob stream of
// struct{ Packed, Raw Series } holding the same two series.
var (
	seriesPackedBytes = []byte{0x1, 0x0, 0x3, 0x11, 0xff}
	seriesRawBytes    = []byte{0x2,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x70, 0x40,
		0x0, 0x0, 0x0, 0x0, 0xe0, 0xff, 0xef, 0x40,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}
	legacyStream = []byte{0x20, 0x7f, 0x3, 0x1, 0x2, 0xff, 0x80, 0x0, 0x1, 0x2, 0x1, 0x6, 0x50, 0x61, 0x63,
		0x6b, 0x65, 0x64, 0x1, 0xff, 0x82, 0x0, 0x1, 0x3, 0x52, 0x61, 0x77, 0x1, 0xff, 0x82, 0x0, 0x0,
		0x0, 0x12, 0xff, 0x81, 0x5, 0x1, 0x1, 0x6, 0x53, 0x65, 0x72, 0x69, 0x65, 0x73, 0x1, 0xff, 0x82,
		0x0, 0x0, 0x0, 0x25, 0xff, 0x80, 0x1, 0x5, 0x1, 0x0, 0x3, 0x11, 0xff, 0x1, 0x19, 0x2, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x70, 0x40, 0x0, 0x0, 0x0, 0x0, 0xe0, 0xff, 0xef, 0x40, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0}
)

// TestSeriesKeepsLegacyBytes asserts the codec's bytes did not change
// with the sample type: the encoder writes the float64-era bytes, and
// those bytes, alone or inside a gob stream, decode to the same
// samples.
func TestSeriesKeepsLegacyBytes(t *testing.T) {
	packed, raw := Series{0, 3, 17, 255}, Series{256, 65535, 0}
	for _, tc := range []struct {
		in   Series
		want []byte
	}{{packed, seriesPackedBytes}, {raw, seriesRawBytes}} {
		blob, err := tc.in.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, tc.want) {
			t.Errorf("%v encoded to %#v, want %#v", tc.in, blob, tc.want)
		}
		var out Series
		if err := out.GobDecode(tc.want); err != nil || !sameSeries(out, tc.in) {
			t.Errorf("legacy bytes %#v decoded to %v (%v), want %v", tc.want, out, err, tc.in)
		}
	}
	var v struct{ Packed, Raw Series }
	if err := gob.NewDecoder(bytes.NewReader(legacyStream)).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if !sameSeries(v.Packed, packed) || !sameSeries(v.Raw, raw) {
		t.Errorf("legacy gob stream decoded to %v and %v, want %v and %v", v.Packed, v.Raw, packed, raw)
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
		blob, err := in.GobEncode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		var out FreqSeries
		if err := out.GobDecode(blob); err != nil {
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
	} {
		var s Series
		if err := s.GobDecode(blob); err == nil {
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
	} {
		var f FreqSeries
		if err := f.GobDecode(blob); err == nil {
			t.Errorf("FreqSeries %s: decoded %v, want error", name, f)
		}
	}
}

// TestSeriesGobMatchesPlainSlices asserts the codec is invisible
// through gob: a Result's series maps decode to what they held, and a
// zero-length value decodes to nil exactly as a plain slice does.
func TestSeriesGobMatchesPlainSlices(t *testing.T) {
	in := Result{
		Benchmark:    "gzip",
		QueueSamples: map[string]Series{NameInt: {1, 2, 3}, NameFP: {}, NameLS: nil, "FetchQ": {256}},
		FreqTrace:    map[string]FreqSeries{NameInt: {{Insts: 9, MHz: 1000}}, NameFP: {}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatal(err)
	}
	var out Result
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want := in
	want.QueueSamples = map[string]Series{NameInt: {1, 2, 3}, NameFP: nil, NameLS: nil, "FetchQ": {256}}
	want.FreqTrace = map[string]FreqSeries{NameInt: {{Insts: 9, MHz: 1000}}, NameFP: nil}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("gob round trip:\n got %+v\nwant %+v", out, want)
	}

	plain := map[string][]float64{"a": {}}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(plain); err != nil {
		t.Fatal(err)
	}
	var plainOut map[string][]float64
	if err := gob.NewDecoder(&buf).Decode(&plainOut); err != nil {
		t.Fatal(err)
	}
	if v, ok := plainOut["a"]; !ok || v != nil {
		t.Errorf("plain gob decoded an empty slice to %#v; the Series codec assumes nil", v)
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
		blob, err := s.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if len(s) > 0 && (blob[0] != seriesPacked || len(blob) != 1+len(s)) {
			t.Errorf("%s: %d samples took %d bytes, want the packed form", name, len(s), len(blob))
		}
	}
	if len(res.FreqTrace[NameInt]) == 0 {
		t.Fatal("no frequency trace recorded")
	}
	for name, f := range res.FreqTrace {
		blob, err := f.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var out FreqSeries
		if err := out.GobDecode(blob); err != nil {
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

// FuzzSeriesCodec feeds arbitrary bytes to both decoders. Neither may
// panic or allocate more points than the payload can hold, and
// anything they accept must re-encode to a form that decodes to the
// same values.
func FuzzSeriesCodec(f *testing.F) {
	for _, s := range []Series{{0, 4, 255}, {256, 65535, 0}} {
		blob, _ := s.GobEncode()
		f.Add(blob)
	}
	for _, fs := range []FreqSeries{{{Insts: 10, MHz: 1000}, {Insts: 4, MHz: 250}}} {
		blob, _ := fs.GobEncode()
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{seriesRaw, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Series
		if err := s.GobDecode(data); err == nil {
			if len(s) > len(data) {
				t.Fatalf("Series: %d samples from %d bytes", len(s), len(data))
			}
			blob, err := s.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			var again Series
			if err := again.GobDecode(blob); err != nil || !sameSeries(s, again) {
				t.Fatalf("Series re-encode: %v, %v -> %v", err, s, again)
			}
		}
		var fs FreqSeries
		if err := fs.GobDecode(data); err == nil {
			if len(fs) > len(data)/9 {
				t.Fatalf("FreqSeries: %d points from %d bytes", len(fs), len(data))
			}
			blob, err := fs.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			var again FreqSeries
			if err := again.GobDecode(blob); err != nil || !sameFreq(fs, again) {
				t.Fatalf("FreqSeries re-encode: %v, %v -> %v", err, fs, again)
			}
		}
	})
}

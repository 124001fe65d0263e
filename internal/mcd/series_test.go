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

// samples returns the series' samples: nil for a nil series, empty for
// an empty one.
func (s Series) samples() []uint16 {
	f := s.Floats()
	if f == nil {
		return nil
	}
	out := make([]uint16, len(f))
	for i, v := range f {
		out[i] = uint16(v)
	}
	return out
}

// sameSamples compares two sample slices element for element and by
// nil-ness.
func sameSamples(a, b []uint16) bool {
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

// repeat returns n copies of v.
func repeat(v uint16, n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// alternate returns n samples that swing between 1 and 2.
func alternate(n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(1 + i%2)
	}
	return out
}

// TestSeriesRoundTrip is the codec's property test: every series
// decodes to exactly what was encoded, in the form the selection rule
// picks and at that form's length, and empty series come back nil.
func TestSeriesRoundTrip(t *testing.T) {
	ramp := make([]uint16, 256)
	for i := range ramp {
		ramp[i] = uint16(i)
	}
	cases := []struct {
		name string
		in   []uint16
		form byte // 0: empty section
		size int  // section length
	}{
		{"nil", nil, 0, 0},
		{"empty", []uint16{}, 0, 0},
		{"occupancies", []uint16{0, 3, 17, 255, 1, 0}, seriesPacked, 7},
		{"all bytes", ramp, seriesPacked, 257},
		{"pairs no shorter", []uint16{5, 5, 5, 1}, seriesPacked, 5},
		{"pairs shorter", []uint16{5, 5, 5, 5, 5, 1}, seriesRuns, 5},
		{"constant", repeat(7, 300), seriesRuns, 5},
		{"one full pair", repeat(255, 256), seriesRuns, 3},
		{"full pair continued", repeat(9, 257), seriesRuns, 5},
		{"idle queue", append(repeat(0, 1000), 1, 1, 2, 0, 0, 0), seriesRuns, 15},
		// 257 zeros take two pairs, so 253 alternating samples after
		// them make the pairs exactly as long as packed: only the
		// exact pair count, not the change count, keeps this packed.
		{"long run then swings", append(repeat(0, 257), alternate(253)...), seriesPacked, 511},
		{"above 255", []uint16{0, 255, 256}, seriesWide, 7},
		{"uint16 extremes", []uint16{65535, 0, 1}, seriesWide, 7},
		{"wide constant", repeat(300, 50), seriesWide, 101},
	}
	for _, tc := range cases {
		s := NewSeries(tc.in)
		blob := s.appendSection(nil)
		if len(blob) != s.sectionLen() || len(blob) != tc.size {
			t.Errorf("%s: section of %d bytes, sectionLen %d, want %d", tc.name, len(blob), s.sectionLen(), tc.size)
		}
		if len(blob) > 0 && blob[0] != tc.form {
			t.Errorf("%s: form %d, want %d", tc.name, blob[0], tc.form)
		}
		if s.Len() != len(tc.in) {
			t.Errorf("%s: Len %d, want %d", tc.name, s.Len(), len(tc.in))
		}
		if !sameSamples(s.samples(), tc.in) {
			t.Errorf("%s: NewSeries holds %v, want %v", tc.name, s.samples(), tc.in)
		}
		var out Series
		if err := out.decodeSection(blob); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		want := tc.in
		if len(want) == 0 {
			want = nil
		}
		if !sameSamples(out.samples(), want) || out.Len() != len(want) {
			t.Errorf("%s: round trip %v -> %v", tc.name, tc.in, out.samples())
		}
		if again := out.appendSection(nil); !bytes.Equal(again, blob) {
			t.Errorf("%s: decode → encode changed the section", tc.name)
		}
	}
}

// TestSeriesFormsAreShortest asserts, over pseudo-random series of
// varied run structure, that the selected form is the shortest allowed
// one (runs only when strictly shorter than packed) and that every
// series round-trips.
func TestSeriesFormsAreShortest(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for trial := 0; trial < 500; trial++ {
		n := 1 + int(next()%700)
		maxV := []uint64{2, 16, 256, 1024}[trial%4]
		stay := next() % 100 // chance in 100 that a sample repeats the last
		in := make([]uint16, n)
		for i := range in {
			if i > 0 && next()%100 < stay {
				in[i] = in[i-1]
				continue
			}
			in[i] = uint16(next() % maxV)
		}
		s := NewSeries(in)
		sec := s.appendSection(nil)
		wantLen := 1 + n
		switch {
		case slices.Max(in) > math.MaxUint8:
			wantLen = 1 + 2*n
		case 2*runPairs(in) < n:
			wantLen = 1 + 2*runPairs(in)
		}
		if len(sec) != wantLen {
			t.Fatalf("trial %d: %d samples took %d bytes, want %d", trial, n, len(sec), wantLen)
		}
		var out Series
		if err := out.decodeSection(sec); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !sameSamples(out.samples(), in) {
			t.Fatalf("trial %d: round trip changed the samples", trial)
		}
	}
}

// TestChangesMatchesScan asserts the eight-bytes-a-step change count
// agrees with a byte-by-byte scan, at every length around its step.
func TestChangesMatchesScan(t *testing.T) {
	x := uint32(12345)
	for n := 0; n < 70; n++ {
		for trial := 0; trial < 50; trial++ {
			b := make([]byte, n)
			for i := range b {
				x = x*1664525 + 1013904223
				if i > 0 && x>>28 < 8 {
					b[i] = b[i-1]
					continue
				}
				b[i] = byte(x >> 24 % 3 * 127)
			}
			want := 0
			for i := 1; i < n; i++ {
				if b[i] != b[i-1] {
					want++
				}
			}
			if got := changes(b); got != want {
				t.Fatalf("changes(%v) = %d, want %d", b, got, want)
			}
		}
	}
}

// seriesPackedBytes is the packed section of {0, 3, 17, 255}, and
// seriesFloat64Bytes the float64 section entry format 3 wrote for
// {256, 65535, 0}.
var (
	seriesPackedBytes  = []byte{0x1, 0x0, 0x3, 0x11, 0xff}
	seriesFloat64Bytes = []byte{0x2,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x70, 0x40,
		0x0, 0x0, 0x0, 0x0, 0xe0, 0xff, 0xef, 0x40,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}
)

// TestSeriesKeepsLegacyBytes asserts the packed section has the bytes
// it had in earlier entry formats, and that the retired float64 form
// is rejected rather than misread.
func TestSeriesKeepsLegacyBytes(t *testing.T) {
	packed := []uint16{0, 3, 17, 255}
	if blob := NewSeries(packed).appendSection(nil); !bytes.Equal(blob, seriesPackedBytes) {
		t.Errorf("%v encoded to %#v, want %#v", packed, blob, seriesPackedBytes)
	}
	var out Series
	if err := out.decodeSection(seriesPackedBytes); err != nil || !sameSamples(out.samples(), packed) {
		t.Errorf("legacy bytes %#v decoded to %v (%v), want %v", seriesPackedBytes, out.samples(), err, packed)
	}
	if err := out.decodeSection(seriesFloat64Bytes); err == nil {
		t.Errorf("retired float64 section decoded to %v", out.samples())
	}
}

// TestSeriesFloats asserts Floats is the exact float64 image of the
// series in every form, keeps nil as nil and empty as empty.
func TestSeriesFloats(t *testing.T) {
	if got := (Series{}).Floats(); got != nil {
		t.Errorf("nil series gave %v", got)
	}
	if got := NewSeries([]uint16{}).Floats(); got == nil || len(got) != 0 {
		t.Errorf("empty series gave %#v", got)
	}
	for _, in := range [][]uint16{{0, 3, 255}, repeat(4, 600), {0, 3, 255, 256, 65535}} {
		got := NewSeries(in).Floats()
		want := make([]float64, len(in))
		for i, v := range in {
			want[i] = float64(v)
		}
		if !slices.Equal(got, want) {
			t.Errorf("Floats = %v, want %v", got, want)
		}
	}
}

// TestSeriesJSON pins the JSON form of a Result's QueueSamples: an
// array of numbers per domain, as a []uint16 of occupancies gives, not
// an object or the base64 string encoding/json writes for a byte slice.
func TestSeriesJSON(t *testing.T) {
	blob, err := json.Marshal(Result{QueueSamples: map[string]Series{
		NameInt: NewSeries([]uint16{0, 3, 255, 256, 65535}),
		NameFP:  {},
		NameLS:  NewSeries([]uint16{}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `"QueueSamples":{"FP":null,"INT":[0,3,255,256,65535],"LS":[]}`
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

// wideSeries builds a wide section of samples.
func wideSeries(samples ...uint16) []byte {
	buf := []byte{seriesWide}
	for _, v := range samples {
		buf = binary.LittleEndian.AppendUint16(buf, v)
	}
	return buf
}

// TestSeriesRejectsMalformed asserts the decoders turn damaged or
// non-canonical input into errors rather than panics, oversized
// allocations or a second encoding of the same samples.
func TestSeriesRejectsMalformed(t *testing.T) {
	for name, blob := range map[string][]byte{
		"form byte only":    {seriesPacked},
		"unknown form":      {0, 1, 2},
		"retired float64":   seriesFloat64Bytes,
		"ragged wide body":  {seriesWide, 1, 2, 3},
		"odd runs body":     {seriesRuns, 9, 100, 9},
		"runs not shorter":  {seriesRuns, 5, 1, 6, 0},
		"packed not longer": {seriesPacked, 7, 7, 7, 7, 7},
		"split run":         {seriesRuns, 9, 100, 9, 100},
		"split at 255":      {seriesRuns, 9, 254, 9, 0},
		"wide that packs":   wideSeries(0, 255, 3),
		"wide constant 255": wideSeries(255, 255, 255, 255),
	} {
		var s Series
		if err := s.decodeSection(blob); err == nil {
			t.Errorf("Series %s: decoded %v, want error", name, s.samples())
		}
	}
	// A run continues into the next pair after a full one: canonical.
	var s Series
	if err := s.decodeSection([]byte{seriesRuns, 9, 255, 9, 0}); err != nil || s.Len() != 257 {
		t.Errorf("full pair continued: %d samples, %v", s.Len(), err)
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

// TestSeriesGobMatchesPlainSlices asserts the entry codec decodes a
// Result's series to what a gob round trip of the same samples as
// plain slices gives, the values the disk cache served before the
// entry codec: what they held, with a zero-length series as nil.
func TestSeriesGobMatchesPlainSlices(t *testing.T) {
	plain := map[string][]uint16{
		NameInt: {1, 2, 3}, NameFP: {}, NameLS: nil, "FetchQ": {256}, "Idle": repeat(0, 40),
	}
	in := Result{Benchmark: "gzip", QueueSamples: map[string]Series{}}
	for k, v := range plain {
		in.QueueSamples[k] = NewSeries(v)
	}
	head, tail, err := in.MarshalParts()
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	if err := out.UnmarshalParts(head, tail); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(plain); err != nil {
		t.Fatal(err)
	}
	var gobOut map[string][]uint16
	if err := gob.NewDecoder(&buf).Decode(&gobOut); err != nil {
		t.Fatal(err)
	}
	if len(out.QueueSamples) != len(gobOut) {
		t.Fatalf("codec kept %d series, gob %d", len(out.QueueSamples), len(gobOut))
	}
	for k, want := range gobOut {
		got, ok := out.QueueSamples[k]
		if !ok || !sameSamples(got.samples(), want) {
			t.Errorf("%s: codec %v, gob %v", k, got.samples(), want)
		}
		if want == nil && !reflect.DeepEqual(got, Series{}) {
			t.Errorf("%s: empty series decoded to %#v, want the zero Series", k, got)
		}
	}
}

// TestSimulatedSeriesPack asserts every occupancy series a real run
// records takes at most one byte a sample (the packed or runs form),
// and that a run's series survive the codec exactly.
func TestSimulatedSeriesPack(t *testing.T) {
	res := runBench(t, "gsm_decode", 20000, DefaultConfig(), func(p *Processor) {
		p.exec[isa.DomainInt].SetTarget(0, 500)
	})
	for name, s := range res.QueueSamples {
		blob := s.appendSection(nil)
		if s.Len() > 0 && (blob[0] == seriesWide || len(blob) > 1+s.Len()) {
			t.Errorf("%s: %d samples took %d bytes in form %d, want at most one a sample", name, s.Len(), len(blob), blob[0])
		}
		var out Series
		if err := out.decodeSection(blob); err != nil || !sameSamples(out.samples(), s.samples()) {
			t.Errorf("%s: occupancy series changed through the codec (%v)", name, err)
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

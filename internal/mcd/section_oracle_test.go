package mcd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
)

// scalarSeriesSection is Series.decodeSection as it was before the
// runs check went four pairs a word: the oracle the word-at-a-time
// check must agree with on every input, verdict, error text and value.
func scalarSeriesSection(data []byte) (Series, error) {
	if len(data) == 0 {
		return Series{}, nil
	}
	body := data[1:]
	if len(body) == 0 {
		return Series{}, errors.New("mcd: series form byte with no samples")
	}
	var n int
	switch data[0] {
	case seriesPacked:
		n = len(body)
		if 2*(changes(body)+1) < n {
			if pairs := runPairs(body); 2*pairs < n {
				return Series{}, fmt.Errorf("mcd: packed series of %d samples whose runs form takes %d pairs", n, pairs)
			}
		}
	case seriesRuns:
		if len(body)%2 != 0 {
			return Series{}, fmt.Errorf("mcd: runs series body of %d bytes is not whole pairs", len(body))
		}
		for i := 0; i < len(body); i += 2 {
			if i > 0 && body[i] == body[i-2] && body[i-1] != math.MaxUint8 {
				return Series{}, fmt.Errorf("mcd: runs series splits a run of %d before a full pair at pair %d", body[i], i/2)
			}
			n += int(body[i+1]) + 1
		}
		if len(body) >= n {
			return Series{}, fmt.Errorf("mcd: runs series of %d samples in %d bytes is no shorter than packed", n, len(body))
		}
	case seriesWide:
		if len(body)%2 != 0 {
			return Series{}, fmt.Errorf("mcd: wide series body of %d bytes is not whole samples", len(body))
		}
		n = len(body) / 2
		fits := true
		for i := 0; i < len(body) && fits; i += 2 {
			fits = binary.LittleEndian.Uint16(body[i:]) <= math.MaxUint8
		}
		if fits {
			return Series{}, errors.New("mcd: wide series whose samples all fit one byte")
		}
	default:
		return Series{}, fmt.Errorf("mcd: unknown series form %d", data[0])
	}
	return Series{sec: append([]byte(nil), data...), n: n}, nil
}

// scalarFreqSection is FreqSeries.decodeSection as it was before the
// inline delta reads: one decoder.varint call per point.
func scalarFreqSection(data []byte) (FreqSeries, error) {
	if len(data) == 0 {
		return nil, nil
	}
	d := decoder{b: data}
	n := d.uvarint()
	if d.err != nil {
		return nil, errors.New("mcd: bad frequency-series length")
	}
	body := d.b
	if n == 0 || n > uint64(len(body))/9 {
		return nil, fmt.Errorf("mcd: frequency series of %d points in %d bytes", n, len(body))
	}
	mhz := body[:8*n]
	d.b = body[8*n:]
	out := make(FreqSeries, n)
	var insts int64
	for i := range out {
		delta := d.varint()
		if d.err != nil {
			return nil, fmt.Errorf("mcd: bad Insts delta at point %d", i)
		}
		insts += delta
		out[i] = FreqPoint{Insts: insts, MHz: math.Float64frombits(binary.LittleEndian.Uint64(mhz[8*i:]))}
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("mcd: %d trailing bytes after frequency series", len(d.b))
	}
	return out, nil
}

// sameVerdict reports whether two decode errors are both nil, or both
// non-nil with the same text.
func sameVerdict(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	return got.Error() == want.Error()
}

// runsSection builds a runs section from (value, run byte) pairs.
func runsSection(pairs ...[2]byte) []byte {
	sec := []byte{seriesRuns}
	for _, p := range pairs {
		sec = append(sec, p[0], p[1])
	}
	return sec
}

// seriesSeeds are runs, packed and wide sections around every edge the
// runs check has: full 255 runs continued by the same value, splits at
// every pair offset modulo the four pairs of a word (and so at every
// byte offset modulo 8), odd bodies, and bodies just under, at and
// past one word.
func seriesSeeds() [][]byte {
	var seeds [][]byte
	for pairs := 1; pairs <= 14; pairs++ {
		// Canonical: values alternate, runs vary.
		ok := make([][2]byte, pairs)
		for i := range ok {
			ok[i] = [2]byte{byte(i % 2 * 9), byte(3 + 40*i)}
		}
		seeds = append(seeds, runsSection(ok...))
		for at := 1; at < pairs; at++ {
			// A split: pair at repeats its predecessor's value after a
			// short run.
			split := append([][2]byte(nil), ok...)
			split[at][0] = split[at-1][0]
			seeds = append(seeds, runsSection(split...))
			// Not a split: the predecessor's run is full.
			full := append([][2]byte(nil), split...)
			full[at-1][1] = math.MaxUint8
			seeds = append(seeds, runsSection(full...))
			// A split with a run byte one short of full.
			short := append([][2]byte(nil), split...)
			short[at-1][1] = math.MaxUint8 - 1
			seeds = append(seeds, runsSection(short...))
		}
		// Every pair a full 255 run of one value: canonical.
		same := make([][2]byte, pairs)
		for i := range same {
			same[i] = [2]byte{7, math.MaxUint8}
		}
		seeds = append(seeds, runsSection(same...))
		// Odd bodies: a value byte with no run byte.
		seeds = append(seeds, append(runsSection(ok...), 9))
	}
	// Long series of full runs, past the words whose run bytes one
	// lane of the check's sums holds, with and without a split at the
	// end.
	for _, pairs := range []int{1023, 1024, 1025, 2051} {
		full := make([][2]byte, pairs)
		for i := range full {
			full[i] = [2]byte{byte(i % 3 / 2), math.MaxUint8}
		}
		seeds = append(seeds, runsSection(full...))
		full[pairs-2][1] = 0
		seeds = append(seeds, runsSection(full...))
	}
	seeds = append(seeds,
		[]byte{},
		[]byte{seriesRuns},
		runsSection([2]byte{5, 0}, [2]byte{6, 0}), // no shorter than packed
		[]byte{seriesPacked, 7, 7, 7, 7, 7},
		[]byte{seriesPacked, 0, 3, 17, 255},
		wideSeries(0, 255, 3),
		wideSeries(0, 256),
		[]byte{0, 1, 2},
		seriesFloat64Bytes,
	)
	return seeds
}

// freqSection builds a trajectory section of n points with zero MHz
// bits and the given delta bytes, whatever they hold.
func freqSection(n uint64, deltas ...byte) []byte {
	sec := binary.AppendUvarint(nil, n)
	sec = append(sec, make([]byte, 8*n)...)
	return append(sec, deltas...)
}

// freqSeeds are trajectory sections whose deltas take 1, 2, 3 and 10
// bytes, with non-minimal and overflowing varints, truncated deltas
// and trailing bytes among them.
func freqSeeds() [][]byte {
	var seeds [][]byte
	for _, x := range []int64{0, 1, -1, 63, -64, 64, 8191, -8192, 8192, 1 << 20, -(1 << 20), 1<<20 + 1, math.MaxInt64, math.MinInt64} {
		delta := binary.AppendVarint(nil, x)
		seeds = append(seeds,
			freqSection(1, delta...),
			freqSection(2, append(delta, delta...)...),
			freqSection(1, append(delta, 0)...), // a trailing byte
			freqSection(2, delta...),            // the second delta is missing
		)
		if len(delta) > 1 {
			seeds = append(seeds, freqSection(1, delta[:len(delta)-1]...)) // truncated
		}
	}
	seeds = append(seeds,
		[]byte{},
		[]byte{0},
		[]byte{0x80},
		freqSection(1, 0x80, 0x00),             // non-minimal 0 in two bytes
		freqSection(1, 0x81, 0x00),             // non-minimal 1 in two bytes
		freqSection(2, 0x80, 0x00, 0x01),       // non-minimal, then a one-byte delta
		freqSection(1, 0x80, 0x80, 0x00),       // non-minimal 0 in three bytes
		freqSection(1, 0xff, 0xff, 0x00),       // non-minimal in three bytes
		freqSection(1, 0xff, 0xff, 0x80, 0x00), // non-minimal in four bytes
		freqSection(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),       // ten bytes, the largest
		freqSection(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02),       // ten bytes, overflowing
		freqSection(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // eleven bytes
		freqSection(3, 0x05, 0xa0, 0x01, 0xa0, 0x80, 0x01),
		append([]byte{0x81, 0}, make([]byte, 9)...), // non-minimal point count
	)
	return seeds
}

// FuzzSeriesSectionMatchesScalar asserts that Series.decodeSection,
// with its four-pairs-a-word runs check, accepts and rejects exactly
// what the scalar decoder did, with the same error text, and decodes
// to the same series.
func FuzzSeriesSectionMatchesScalar(f *testing.F) {
	for _, seed := range seriesSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Series
		err := got.decodeSection(data)
		want, wantErr := scalarSeriesSection(data)
		if !sameVerdict(err, wantErr) {
			t.Fatalf("decodeSection(%x): error %v, scalar %v", data, err, wantErr)
		}
		if err == nil && (got.n != want.n || (got.sec == nil) != (want.sec == nil) || !bytes.Equal(got.sec, want.sec)) {
			t.Fatalf("decodeSection(%x) = %d samples in %x, scalar %d in %x", data, got.n, got.sec, want.n, want.sec)
		}
	})
}

// FuzzFreqSectionMatchesScalar asserts that FreqSeries.decodeSection,
// with its inline delta reads, accepts and rejects exactly what the
// per-point varint decoder did, with the same error text, and decodes
// to the same points.
func FuzzFreqSectionMatchesScalar(f *testing.F) {
	for _, seed := range freqSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got FreqSeries
		err := got.decodeSection(data)
		want, wantErr := scalarFreqSection(data)
		if !sameVerdict(err, wantErr) {
			t.Fatalf("decodeSection(%x): error %v, scalar %v", data, err, wantErr)
		}
		if err == nil && !sameFreq(got, want) {
			t.Fatalf("decodeSection(%x) = %v, scalar %v", data, got, want)
		}
	})
}

// TestRunsCheckMatchesScalar runs the runs check against the scalar
// loop over pseudo-random bodies built to sit near its edges: a small
// alphabet, so neighbouring pairs often share a value, and run bytes
// that are often full.
func TestRunsCheckMatchesScalar(t *testing.T) {
	x := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for trial := 0; trial < 20000; trial++ {
		pairs := 1 + int(next()%40)
		sec := []byte{seriesRuns}
		for i := 0; i < pairs; i++ {
			r := byte(next())
			if next()%2 == 0 {
				r = math.MaxUint8
			}
			sec = append(sec, byte(next()%3), r)
		}
		var got Series
		err := got.decodeSection(sec)
		want, wantErr := scalarSeriesSection(sec)
		if !sameVerdict(err, wantErr) || got.n != want.n {
			t.Fatalf("section %x: %d samples, error %v; scalar %d, %v", sec, got.n, err, want.n, wantErr)
		}
	}
}

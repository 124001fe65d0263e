package mcd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// Series is a sampled occupancy series (Result.QueueSamples). It holds
// the series in the form the entry codec stores it (codec.go), so a
// disk-cache hit checks that section and copies it once, and never
// widens it. NewSeries builds one from a sampler's samples; Len,
// Floats and MarshalJSON read it. The zero Series is a nil series.
//
// The section is a form byte followed by the samples, with no count:
//
//   - runs: pairs of (value, run length − 1) bytes, chosen exactly
//     when every sample is at most 255 and the pairs are strictly
//     shorter than the packed form, as a queue that rarely moves
//     gives. A run continues into the next pair only after a full
//     pair (256 samples), so every series has one runs encoding.
//   - packed: one byte per sample, for any other series whose samples
//     are all at most 255, as every default-sized queue's are.
//   - wide: two little-endian bytes per sample, for anything else
//     (Config.Validate caps every sampled queue at 65535 entries).
//
// Decoding accepts only the form the samples select, in its one
// encoding, and checks it in one pass over the section: a runs body
// four pairs per 8-byte word for splits of a run before a full pair,
// summing the samples as it goes; a packed body eight bytes a step
// for value changes, counting its pairs exactly only when the changes
// leave the runs form possibly shorter; a wide body until one sample
// needs two bytes. No form holds more than two bytes a sample. An
// empty or nil series is an empty section and decodes to nil, as gob
// did for a plain empty slice.
type Series struct {
	// sec is the section; nil for a nil series, empty for an empty one.
	sec []byte
	// n is the sample count.
	n int
}

// FreqSeries is a frequency trajectory (Result.FreqTrace). Its section
// in the entry codec is uvarint(n), then n little-endian MHz bit
// patterns, then n zigzag-varint deltas of Insts (the first from
// zero). Retired counts grow slowly between retargets, so a delta
// takes one byte or two nearly always (85% and 15% of a sweep's
// points). Decoding checks the point count against the section before
// it allocates, each delta's varint minimal, and that no byte trails;
// it reads deltas of up to three bytes inline and hands longer ones
// to the codec's varint reader. Empty is an empty section and decodes
// to nil.
type FreqSeries []FreqPoint

// Series encoding forms. Zero is reserved so a zeroed byte never
// passes for a valid form; 2 was the float64 form of entry format 3.
const (
	seriesPacked byte = 1
	seriesWide   byte = 3
	seriesRuns   byte = 4
)

// maxRun is the most samples one runs pair holds.
const maxRun = math.MaxUint8 + 1

// NewSeries returns the series of samples; nil gives a nil series and
// an empty slice an empty one. It does not keep samples.
func NewSeries(samples []uint16) Series {
	if samples == nil {
		return Series{}
	}
	n := len(samples)
	if n == 0 {
		return Series{sec: []byte{}}
	}
	for _, v := range samples {
		if v > math.MaxUint8 {
			sec := make([]byte, 1, 1+2*n)
			sec[0] = seriesWide
			for _, v := range samples {
				sec = binary.LittleEndian.AppendUint16(sec, v)
			}
			return Series{sec: sec, n: n}
		}
	}
	if pairs := runPairs(samples); 2*pairs < n {
		sec := make([]byte, 1, 1+2*pairs)
		sec[0] = seriesRuns
		for i := 0; i < n; {
			j := i + 1
			for j < n && j-i < maxRun && samples[j] == samples[i] {
				j++
			}
			sec = append(sec, byte(samples[i]), byte(j-i-1))
			i = j
		}
		return Series{sec: sec, n: n}
	}
	sec := make([]byte, 1+n)
	sec[0] = seriesPacked
	for i, v := range samples {
		sec[1+i] = byte(v)
	}
	return Series{sec: sec, n: n}
}

// runPairs is the number of pairs the runs form of s takes.
func runPairs[T uint16 | byte](s []T) int {
	pairs := 0
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && j-i < maxRun && s[j] == s[i] {
			j++
		}
		pairs++
		i = j
	}
	return pairs
}

// changes counts the i in [1, len(b)) where b[i] != b[i-1], eight
// bytes a step: the runs form of b takes at least changes(b)+1 pairs.
func changes(b []byte) int {
	const low7 = 0x7f7f7f7f7f7f7f7f
	n, i := 0, 0
	for ; i+9 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:]) ^ binary.LittleEndian.Uint64(b[i+1:])
		// Bit 7 of a byte of x is set here exactly when the byte is
		// nonzero; no sum carries into the next byte.
		n += bits.OnesCount64(((x & low7) + low7 | x) &^ low7)
	}
	for i++; i < len(b); i++ {
		if b[i] != b[i-1] {
			n++
		}
	}
	return n
}

// checkRuns reads a runs body of at least one whole pair. It returns
// the number of samples the body holds, and the first pair that splits
// a run (−1 if none): one whose value equals the previous pair's while
// that pair's run is not full. It checks four pairs per 8-byte word:
// lane j of the word at pair i is pair i+j, and the word one pair
// earlier holds pair i+j−1 in the same lane. The run bytes are summed
// lane by lane, a block of words at a time, and the last pairs one by
// one.
func checkRuns(body []byte) (n, split int) {
	const (
		low7   = 0x7f7f7f7f7f7f7f7f
		values = 0x00ff00ff00ff00ff // each lane's value byte
		runs   = 0xff00ff00ff00ff00 // each lane's run byte
		splits = values &^ low7     // bit 7 of each lane's value byte
		block  = 256                // words whose run bytes a 16-bit lane can sum
	)
	n = int(body[1]) + 1
	i := 1
	for 2*i+8 <= len(body) {
		// p starts one pair before the word it checks.
		p := body[2*i-2:]
		var sums uint64
		k := 0
		for ; k < block && len(p) >= 10; k++ {
			w, prev := binary.LittleEndian.Uint64(p[2:]), binary.LittleEndian.Uint64(p)
			// A lane of u is zero in its value byte exactly when the
			// pair's value equals the previous pair's, and nonzero in
			// its run byte exactly when the previous pair's run is not
			// full. As in changes, bit 7 of each byte of nz is set
			// exactly when that byte of u is nonzero.
			u := w&values ^ prev ^ runs
			nz := (u&low7 + low7) | u
			if bad := nz >> 8 &^ nz & splits; bad != 0 {
				return 0, i + 4*k + bits.TrailingZeros64(bad)/16
			}
			sums += w >> 8 & values
			p = p[8:]
		}
		// Fold the lanes' sums into one: each pair holds its run byte
		// plus one samples.
		sums = sums&0x0000ffff0000ffff + sums>>16&0x0000ffff0000ffff
		n += int(sums&0xffffffff+sums>>32) + 4*k
		i += 4 * k
	}
	for ; 2*i < len(body); i++ {
		if body[2*i] == body[2*i-2] && body[2*i-1] != math.MaxUint8 {
			return 0, i
		}
		n += int(body[2*i+1]) + 1
	}
	return n, -1
}

// Len returns the number of samples.
func (s Series) Len() int { return s.n }

// Floats returns the series as float64 values, the form the spectral
// analysis reads. It allocates; a nil series gives nil.
func (s Series) Floats() []float64 {
	if s.sec == nil {
		return nil
	}
	out := make([]float64, 0, s.n)
	if s.n == 0 {
		return out
	}
	body := s.sec[1:]
	switch s.sec[0] {
	case seriesPacked:
		for _, b := range body {
			out = append(out, float64(b))
		}
	case seriesRuns:
		for i := 0; i < len(body); i += 2 {
			v := float64(body[i])
			for k := 0; k <= int(body[i+1]); k++ {
				out = append(out, v)
			}
		}
	case seriesWide:
		for i := 0; i < len(body); i += 2 {
			out = append(out, float64(binary.LittleEndian.Uint16(body[i:])))
		}
	}
	return out
}

// MarshalJSON writes the series as the JSON number array its samples
// give as a []uint16: null for a nil series, [] for an empty one. The
// one-byte forms size the array exactly and write each sample from a
// table, with no branch on its digits.
func (s Series) MarshalJSON() ([]byte, error) {
	if s.sec == nil {
		return []byte("null"), nil
	}
	if s.n == 0 {
		return []byte("[]"), nil
	}
	body := s.sec[1:]
	var b []byte
	switch s.sec[0] {
	case seriesPacked:
		size := 1
		for _, v := range body {
			size += int(decimals[v] >> 32)
		}
		// Each write stores four bytes; the slack takes the last one's.
		b = make([]byte, size+3)
		j := 1
		for _, v := range body {
			d := decimals[v]
			binary.LittleEndian.PutUint32(b[j:], uint32(d))
			j += int(d >> 32)
		}
		b = b[:size]
	case seriesRuns:
		size := 1
		for i := 0; i < len(body); i += 2 {
			size += (int(body[i+1]) + 1) * int(decimals[body[i]]>>32)
		}
		b = make([]byte, size+3)
		j := 1
		for i := 0; i < len(body); i += 2 {
			d := decimals[body[i]]
			for k := 0; k <= int(body[i+1]); k++ {
				binary.LittleEndian.PutUint32(b[j:], uint32(d))
				j += int(d >> 32)
			}
		}
		b = b[:size]
	case seriesWide:
		b = make([]byte, 1, 1+6*s.n)
		for i := 0; i < len(body); i += 2 {
			b = strconv.AppendUint(b, uint64(binary.LittleEndian.Uint16(body[i:])), 10)
			b = append(b, ',')
		}
	}
	b[0], b[len(b)-1] = '[', ']'
	return b, nil
}

// decimals holds, for each byte value v, v in decimal followed by a
// comma in its low four bytes, first character lowest, and the length
// of that text in its upper half.
var decimals = func() (t [256]uint64) {
	for v := range t {
		text := strconv.AppendUint(nil, uint64(v), 10)
		text = append(text, ',')
		for i, c := range text {
			t[v] |= uint64(c) << (8 * i)
		}
		t[v] |= uint64(len(text)) << 32
	}
	return t
}()

// sectionLen is the length of the series' section.
func (s Series) sectionLen() int { return len(s.sec) }

// appendSection appends the series' section to b.
func (s Series) appendSection(b []byte) []byte { return append(b, s.sec...) }

// decodeSection sets s from a section appendSection wrote, after
// checking it is the canonical section of its samples (see Series for
// what each form's pass checks). The section is copied out of data,
// so s never aliases it; the copy is the only allocation, and a runs
// section of k bytes holds at most 128·k samples.
func (s *Series) decodeSection(data []byte) error {
	if len(data) == 0 {
		*s = Series{}
		return nil
	}
	body := data[1:]
	if len(body) == 0 {
		return errors.New("mcd: series form byte with no samples")
	}
	var n int
	switch data[0] {
	case seriesPacked:
		// Most packed sections change value often enough that the
		// lower bound settles it without counting pairs.
		n = len(body)
		if 2*(changes(body)+1) < n {
			if pairs := runPairs(body); 2*pairs < n {
				return fmt.Errorf("mcd: packed series of %d samples whose runs form takes %d pairs", n, pairs)
			}
		}
	case seriesRuns:
		if len(body)%2 != 0 {
			return fmt.Errorf("mcd: runs series body of %d bytes is not whole pairs", len(body))
		}
		var split int
		if n, split = checkRuns(body); split >= 0 {
			return fmt.Errorf("mcd: runs series splits a run of %d before a full pair at pair %d", body[2*split], split)
		}
		if len(body) >= n {
			return fmt.Errorf("mcd: runs series of %d samples in %d bytes is no shorter than packed", n, len(body))
		}
	case seriesWide:
		if len(body)%2 != 0 {
			return fmt.Errorf("mcd: wide series body of %d bytes is not whole samples", len(body))
		}
		n = len(body) / 2
		fits := true
		for i := 0; i < len(body) && fits; i += 2 {
			fits = binary.LittleEndian.Uint16(body[i:]) <= math.MaxUint8
		}
		if fits {
			return errors.New("mcd: wide series whose samples all fit one byte")
		}
	default:
		return fmt.Errorf("mcd: unknown series form %d", data[0])
	}
	*s = Series{sec: append([]byte(nil), data...), n: n}
	return nil
}

// sectionLen is the length of the trajectory's section.
func (f FreqSeries) sectionLen() int {
	if len(f) == 0 {
		return 0
	}
	n := uvarintLen(uint64(len(f))) + 8*len(f)
	var prev int64
	for _, p := range f {
		n += uvarintLen(zigzag(p.Insts - prev))
		prev = p.Insts
	}
	return n
}

// appendSection appends the trajectory's section to b.
func (f FreqSeries) appendSection(b []byte) []byte {
	if len(f) == 0 {
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(f)))
	for _, p := range f {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.MHz))
	}
	var prev int64
	for _, p := range f {
		b = binary.AppendVarint(b, p.Insts-prev)
		prev = p.Insts
	}
	return b
}

// decodeSection sets f from a section appendSection wrote. The point
// count is checked against the section (each point needs its 8 MHz
// bytes and at least one delta byte) before anything is allocated;
// then one pass reads each point's MHz bits and delta, checking the
// delta's varint is minimal, and a last check finds no trailing byte.
func (f *FreqSeries) decodeSection(data []byte) error {
	if len(data) == 0 {
		*f = nil
		return nil
	}
	d := decoder{b: data}
	n := d.uvarint()
	if d.err != nil {
		return errors.New("mcd: bad frequency-series length")
	}
	body := d.b
	if n == 0 || n > uint64(len(body))/9 {
		return fmt.Errorf("mcd: frequency series of %d points in %d bytes", n, len(body))
	}
	mhz, deltas := body[:8*n], body[8*n:]
	out := make(FreqSeries, n)
	var insts int64
	for i := range out {
		// A delta of one to three bytes is read here: minimal exactly
		// when its last byte is nonzero or it is one byte long. Any
		// other goes to uvarint, which reads or rejects it.
		var u uint64
		switch b := deltas; {
		case len(b) > 0 && b[0] < 0x80:
			u, deltas = uint64(b[0]), b[1:]
		case len(b) > 1 && b[1] < 0x80 && b[1] != 0:
			u, deltas = uint64(b[0]&0x7f)|uint64(b[1])<<7, b[2:]
		case len(b) > 2 && b[1] >= 0x80 && b[2] < 0x80 && b[2] != 0:
			u, deltas = uint64(b[0]&0x7f)|uint64(b[1]&0x7f)<<7|uint64(b[2])<<14, b[3:]
		default:
			d.b = deltas
			if u = d.uvarint(); d.err != nil {
				return fmt.Errorf("mcd: bad Insts delta at point %d", i)
			}
			deltas = d.b
		}
		insts += int64(u>>1) ^ -int64(u&1) // the zigzag varint's value
		out[i] = FreqPoint{Insts: insts, MHz: math.Float64frombits(binary.LittleEndian.Uint64(mhz[8*i:]))}
	}
	if len(deltas) != 0 {
		return fmt.Errorf("mcd: %d trailing bytes after frequency series", len(deltas))
	}
	*f = out
	return nil
}

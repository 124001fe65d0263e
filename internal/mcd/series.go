package mcd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Series is a sampled occupancy series (Result.QueueSamples). An
// occupancy is a small non-negative integer, so a sample takes two
// bytes in memory (Config.Validate caps every sampled queue at 65535
// entries). Floats converts the series for the spectral analysis.
//
// Its section in the entry codec (codec.go) is a form byte followed by
// the samples, with no count — the section length fixes it:
//
//   - packed: one byte per sample, chosen exactly when every sample
//     is at most 255, as every default-sized queue's is.
//   - raw: the little-endian IEEE-754 bits of each sample as a
//     float64, for anything else. Decoding rejects a raw sample that
//     is not an integer in [0, 65535] (or is −0), and a raw section
//     whose samples would all have packed.
//
// Both forms are the ones the series had when it was a []float64. An
// empty or nil series is an empty section and decodes to nil, as gob
// does for a plain empty slice. On disk a series therefore costs
// about one byte per sample.
type Series []uint16

// FreqSeries is a frequency trajectory (Result.FreqTrace). Its section
// in the entry codec is uvarint(n), then n little-endian MHz bit
// patterns, then n zigzag-varint deltas of Insts (the first from
// zero). Retired counts grow slowly between retargets, so a delta
// usually takes two or three bytes. Empty is an empty section and
// decodes to nil.
type FreqSeries []FreqPoint

// Series encoding forms. Zero is reserved so a zeroed byte never
// passes for a valid form.
const (
	seriesPacked byte = 1
	seriesRaw    byte = 2
)

// Floats returns the series as float64 values, the form the spectral
// analysis reads. It allocates; a nil series gives nil.
func (s Series) Floats() []float64 {
	if s == nil {
		return nil
	}
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = float64(v)
	}
	return out
}

// packed reports whether every sample fits the one-byte form.
func (s Series) packed() bool {
	for _, v := range s {
		if v > math.MaxUint8 {
			return false
		}
	}
	return true
}

// sectionLen is the length of the series' section.
func (s Series) sectionLen() int {
	switch {
	case len(s) == 0:
		return 0
	case s.packed():
		return 1 + len(s)
	default:
		return 1 + 8*len(s)
	}
}

// appendSection appends the series' section to b.
func (s Series) appendSection(b []byte) []byte {
	if len(s) == 0 {
		return b
	}
	if s.packed() {
		b = append(b, seriesPacked)
		for _, v := range s {
			b = append(b, byte(v))
		}
		return b
	}
	b = append(b, seriesRaw)
	for _, v := range s {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(v)))
	}
	return b
}

// decodeSection sets s from a section appendSection wrote. The sample
// count follows from the section length, so the allocation is bounded
// by the input, and the samples are copied out of data.
func (s *Series) decodeSection(data []byte) error {
	if len(data) == 0 {
		*s = nil
		return nil
	}
	body := data[1:]
	if len(body) == 0 {
		return errors.New("mcd: series form byte with no samples")
	}
	switch data[0] {
	case seriesPacked:
		out := make(Series, len(body))
		for i, b := range body {
			out[i] = uint16(b)
		}
		*s = out
	case seriesRaw:
		if len(body)%8 != 0 {
			return fmt.Errorf("mcd: raw series body of %d bytes is not whole samples", len(body))
		}
		out := make(Series, len(body)/8)
		for i := range out {
			v := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
			if !(v >= 0 && v <= math.MaxUint16 && v == math.Trunc(v)) || math.Signbit(v) {
				return fmt.Errorf("mcd: raw series sample %d is %g, not an occupancy", i, v)
			}
			out[i] = uint16(v)
		}
		if out.packed() {
			return errors.New("mcd: raw series whose samples all fit the packed form")
		}
		*s = out
	default:
		return fmt.Errorf("mcd: unknown series form %d", data[0])
	}
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
// bytes and at least one delta byte) before anything is allocated.
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
	mhz := body[:8*n]
	d.b = body[8*n:]
	out := make(FreqSeries, n)
	var insts int64
	for i := range out {
		delta := d.varint()
		if d.err != nil {
			return fmt.Errorf("mcd: bad Insts delta at point %d", i)
		}
		insts += delta
		out[i] = FreqPoint{Insts: insts, MHz: math.Float64frombits(binary.LittleEndian.Uint64(mhz[8*i:]))}
	}
	if len(d.b) != 0 {
		return fmt.Errorf("mcd: %d trailing bytes after frequency series", len(d.b))
	}
	*f = out
	return nil
}

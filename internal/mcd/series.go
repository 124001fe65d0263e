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
// The gob form is a form byte followed by the samples, with no length
// prefix — the payload length fixes the count:
//
//   - packed: one byte per sample, chosen when every sample is at
//     most 255, as every default-sized queue's is.
//   - raw: the little-endian IEEE-754 bits of each sample as a
//     float64, for anything else. Decoding rejects a raw sample that
//     is not an integer in [0, 65535].
//
// Both forms are the ones the series had when it was a []float64, so
// cache entries written then still decode. An empty or nil series
// encodes to zero bytes and decodes to nil, as gob does for a plain
// empty slice. On disk a series therefore costs about one byte per
// sample.
type Series []uint16

// FreqSeries is a frequency trajectory (Result.FreqTrace). Its gob form
// is uvarint(n), then n little-endian MHz bit patterns, then n
// zigzag-varint deltas of Insts (the first from zero). Retired counts
// grow slowly between retargets, so a delta usually takes two or three
// bytes. Empty encodes to zero bytes and decodes to nil.
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

// GobEncode implements gob.GobEncoder.
func (s Series) GobEncode() ([]byte, error) {
	if len(s) == 0 {
		return nil, nil
	}
	packed := true
	for _, v := range s {
		if v > math.MaxUint8 {
			packed = false
			break
		}
	}
	if packed {
		buf := make([]byte, 1+len(s))
		buf[0] = seriesPacked
		for i, v := range s {
			buf[1+i] = byte(v)
		}
		return buf, nil
	}
	buf := make([]byte, 1+8*len(s))
	buf[0] = seriesRaw
	for i, v := range s {
		binary.LittleEndian.PutUint64(buf[1+8*i:], math.Float64bits(float64(v)))
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder. The sample count follows from
// the payload length, so the allocation is bounded by the input.
func (s *Series) GobDecode(data []byte) error {
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
			if !(v >= 0 && v <= math.MaxUint16 && v == math.Trunc(v)) {
				return fmt.Errorf("mcd: raw series sample %d is %g, not an occupancy", i, v)
			}
			out[i] = uint16(v)
		}
		*s = out
	default:
		return fmt.Errorf("mcd: unknown series form %d", data[0])
	}
	return nil
}

// GobEncode implements gob.GobEncoder.
func (f FreqSeries) GobEncode() ([]byte, error) {
	if len(f) == 0 {
		return nil, nil
	}
	buf := make([]byte, 0, binary.MaxVarintLen64+11*len(f))
	buf = binary.AppendUvarint(buf, uint64(len(f)))
	for _, p := range f {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.MHz))
	}
	var prev int64
	for _, p := range f {
		buf = binary.AppendVarint(buf, p.Insts-prev)
		prev = p.Insts
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder. The point count is checked
// against the payload (each point needs its 8 MHz bytes and at least
// one delta byte) before anything is allocated.
func (f *FreqSeries) GobDecode(data []byte) error {
	if len(data) == 0 {
		*f = nil
		return nil
	}
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return errors.New("mcd: bad frequency-series length")
	}
	body := data[k:]
	if n == 0 || n > uint64(len(body))/9 {
		return fmt.Errorf("mcd: frequency series of %d points in %d bytes", n, len(body))
	}
	mhz, deltas := body[:8*n], body[8*n:]
	out := make(FreqSeries, n)
	var insts int64
	for i := range out {
		d, dk := binary.Varint(deltas)
		if dk <= 0 {
			return fmt.Errorf("mcd: bad Insts delta at point %d", i)
		}
		deltas = deltas[dk:]
		insts += d
		out[i] = FreqPoint{Insts: insts, MHz: math.Float64frombits(binary.LittleEndian.Uint64(mhz[8*i:]))}
	}
	if len(deltas) != 0 {
		return fmt.Errorf("mcd: %d trailing bytes after frequency series", len(deltas))
	}
	*f = out
	return nil
}

package mcd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/power"
)

// The entry codec is the disk-cache form of ChipResult (its
// MarshalParts and UnmarshalParts), written by hand for the warm-disk
// hit path: a decode is one pass over the bytes with no per-entry type
// description to compile, and an occupancy series, which holds its
// section as it is stored, is checked and copied once out of the read
// buffer. An entry has two parts, each behind its own checksum in the
// disk cache (entry format 5):
//
//   - the head: the core count, then each core's Result without its
//     QueueSamples, then the chip fields (Metrics, PowerCapW,
//     EpochTrace);
//   - the tail: each core's QueueSamples map, in core order.
//
// The head is every scalar and frequency trajectory an experiment
// reads; the tail is the occupancy series, which only the Section 5.2
// classifier and Figure 8 read, from no-DVFS runs, and which are most
// of an entry's bytes. A head-only decode (a nil tail) leaves every
// core's QueueSamples nil, as a matrix keeps its controlled cells.
// Each part follows the struct fields in declaration order:
//
//   - float64: its 8 little-endian IEEE-754 bits, so every value
//     round-trips exactly (NaN payloads and −0 included);
//   - unsigned integer: uvarint; signed integer and clock.Time: zigzag
//     varint;
//   - string: uvarint length, then the bytes;
//   - map: uvarint 0 for nil, else the entry count plus one, then key
//     and value per entry in ascending key order;
//   - slice: uvarint element count, then the elements;
//   - Series and FreqSeries: uvarint section length, then the section
//     (series.go): a form byte and the occupancy samples in their runs,
//     packed or wide form; the frequency points as MHz bits and Insts
//     deltas.
//
// Entries are byte-deterministic: map keys are sorted and every
// length and varint has one encoding. The decoder accepts only that
// canonical form — minimal varints, strictly ascending keys, the form
// a series' samples select and its one encoding in that form, no
// trailing bytes in either part — so whatever it accepts re-encodes to
// the same bytes. It checks every count against the bytes left before
// allocating, and copies everything it keeps, so a decoded value never
// aliases the input. A decoded value is the one a gob round trip
// gives, as the disk cache served before the codec: an empty slice or
// series decodes to nil, and a map keeps nil apart from empty.
//
// A codec change must bump diskcache.FormatVersion.

// Minimum encoded sizes, the bound a count is checked against before
// anything is allocated: every varint and length takes at least a
// byte, every float64 eight.
const (
	minMetricsLen     = 8 + 1 + 1
	minDomainStatsLen = 6*8 + 3
	minCoreHeadLen    = 1 + 1 + minMetricsLen + 2 + 5*8 + 3
	minEpochLen       = 1 + 3
)

// MarshalParts encodes c as an entry's head and tail (see above), two
// slices of one buffer. A nil core is an error: it has no encoding.
func (c *ChipResult) MarshalParts() (head, tail []byte, err error) {
	n := 16 + 32*len(c.EpochTrace)
	for _, core := range c.Cores {
		if core == nil {
			return nil, nil, errors.New("mcd: encoding a ChipResult with a nil core")
		}
		n += core.encodedLenHint()
	}
	b := make([]byte, 0, n)
	b = binary.AppendUvarint(b, uint64(len(c.Cores)))
	for _, core := range c.Cores {
		b = core.appendHead(b)
	}
	b = appendMetrics(b, c.Metrics)
	b = appendFloat(b, c.PowerCapW)
	b = binary.AppendUvarint(b, uint64(len(c.EpochTrace)))
	for _, e := range c.EpochTrace {
		b = binary.AppendVarint(b, int64(e.Time))
		b = appendFloats(b, e.CorePowerW)
		b = appendFloats(b, e.CapMHz)
		b = binary.AppendUvarint(b, uint64(len(e.CoreInsts)))
		for _, v := range e.CoreInsts {
			b = binary.AppendVarint(b, v)
		}
	}
	h := len(b)
	for _, core := range c.Cores {
		b = core.appendTail(b)
	}
	return b[:h:h], b[h:], nil
}

// UnmarshalParts decodes an entry MarshalParts encoded: head, then
// tail unless tail is nil. A head-only decode leaves every core's
// QueueSamples nil and is otherwise the full decode. It replaces all
// of *c, and leaves *c unchanged on error.
func (c *ChipResult) UnmarshalParts(head, tail []byte) error {
	d := decoder{b: head}
	var out ChipResult
	if n := d.count(minCoreHeadLen); n > 0 {
		out.Cores = make([]*Result, n)
		for i := range out.Cores {
			out.Cores[i] = new(Result)
			out.Cores[i].decodeHead(&d)
		}
	}
	out.Metrics = d.metrics()
	out.PowerCapW = d.float()
	if n := d.count(minEpochLen); n > 0 {
		out.EpochTrace = make([]EpochSample, n)
		for i := range out.EpochTrace {
			e := &out.EpochTrace[i]
			e.Time = clock.Time(d.varint())
			e.CorePowerW = d.floats()
			e.CapMHz = d.floats()
			if n := d.count(1); n > 0 {
				e.CoreInsts = make([]int64, n)
				for j := range e.CoreInsts {
					e.CoreInsts[j] = d.varint()
				}
			}
		}
	}
	if err := d.finish(); err != nil {
		return err
	}
	if tail != nil {
		d = decoder{b: tail}
		for _, core := range out.Cores {
			core.decodeTail(&d)
		}
		if err := d.finish(); err != nil {
			return err
		}
	}
	*c = out
	return nil
}

// encodedLenHint sizes an encoding buffer: the series sections
// exactly, the rest roughly.
func (r *Result) encodedLenHint() int {
	n := 512
	for _, s := range r.QueueSamples {
		n += 16 + s.sectionLen()
	}
	for _, f := range r.FreqTrace {
		n += 16 + 12*len(f)
	}
	return n
}

// appendHead appends r's head part: every field but QueueSamples.
func (r *Result) appendHead(b []byte) []byte {
	b = appendString(b, r.Benchmark)
	b = appendString(b, r.Scheme)
	b = appendMetrics(b, r.Metrics)
	b = appendMap(b, r.Domains, appendDomainStats)
	b = appendMap(b, r.FreqTrace, func(b []byte, f FreqSeries) []byte {
		b = binary.AppendUvarint(b, uint64(f.sectionLen()))
		return f.appendSection(b)
	})
	b = appendFloat(b, r.IPC)
	b = appendFloat(b, r.BranchMispredictRate)
	b = appendFloat(b, r.L1DMissRate)
	b = appendFloat(b, r.L2MissRate)
	b = appendFloat(b, r.L1IMissRate)
	b = appendMap(b, r.QueueFullStalls, binary.AppendUvarint)
	b = binary.AppendUvarint(b, r.ForwardedLoads)
	return appendMap(b, r.RetiredByClass, binary.AppendVarint)
}

// appendTail appends r's tail part: its QueueSamples.
func (r *Result) appendTail(b []byte) []byte {
	return appendMap(b, r.QueueSamples, func(b []byte, s Series) []byte {
		b = binary.AppendUvarint(b, uint64(s.sectionLen()))
		return s.appendSection(b)
	})
}

func (r *Result) decodeHead(d *decoder) {
	r.Benchmark = d.string()
	r.Scheme = d.string()
	r.Metrics = d.metrics()
	r.Domains = decodeMap(d, minDomainStatsLen, (*decoder).domainStats)
	r.FreqTrace = decodeMap(d, 1, (*decoder).freqSeries)
	r.IPC = d.float()
	r.BranchMispredictRate = d.float()
	r.L1DMissRate = d.float()
	r.L2MissRate = d.float()
	r.L1IMissRate = d.float()
	r.QueueFullStalls = decodeMap(d, 1, (*decoder).uvarint)
	r.ForwardedLoads = d.uvarint()
	r.RetiredByClass = decodeMap(d, 1, (*decoder).varint)
}

func (r *Result) decodeTail(d *decoder) {
	r.QueueSamples = decodeMap(d, 1, (*decoder).series)
}

func appendDomainStats(b []byte, s DomainStats) []byte {
	b = appendFloat(b, s.EnergyJ)
	b = appendFloat(b, s.DynamicJ)
	b = appendFloat(b, s.LeakageJ)
	b = binary.AppendUvarint(b, s.Cycles)
	b = appendFloat(b, s.MeanFreqMHz)
	b = binary.AppendVarint(b, int64(s.Transitions))
	b = binary.AppendVarint(b, int64(s.SlewTime))
	b = appendFloat(b, s.MeanOccupancy)
	return appendFloat(b, s.MeanActivity)
}

func (d *decoder) domainStats() DomainStats {
	var s DomainStats
	s.EnergyJ = d.float()
	s.DynamicJ = d.float()
	s.LeakageJ = d.float()
	s.Cycles = d.uvarint()
	s.MeanFreqMHz = d.float()
	s.Transitions = int(d.varint())
	s.SlewTime = clock.Time(d.varint())
	s.MeanOccupancy = d.float()
	s.MeanActivity = d.float()
	return s
}

func appendMetrics(b []byte, m power.Metrics) []byte {
	b = appendFloat(b, m.EnergyJ)
	b = binary.AppendVarint(b, int64(m.ExecTime))
	return binary.AppendVarint(b, m.Instructions)
}

func (d *decoder) metrics() power.Metrics {
	var m power.Metrics
	m.EnergyJ = d.float()
	m.ExecTime = clock.Time(d.varint())
	m.Instructions = d.varint()
	return m
}

func (d *decoder) series() Series {
	var s Series
	if err := s.decodeSection(d.bytes(d.count(1))); err != nil {
		d.fail("%v", err)
	}
	return s
}

func (d *decoder) freqSeries() FreqSeries {
	var f FreqSeries
	if err := f.decodeSection(d.bytes(d.count(1))); err != nil {
		d.fail("%v", err)
	}
	return f
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendFloats(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendFloat(b, v)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendMap appends 0 for a nil m, else its entry count plus one and
// each entry in ascending key order.
func appendMap[V any](b []byte, m map[string]V, appendValue func([]byte, V) []byte) []byte {
	if m == nil {
		return append(b, 0)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys))+1)
	for _, k := range keys {
		b = appendString(b, k)
		b = appendValue(b, m[k])
	}
	return b
}

// decodeMap reads a map appendMap wrote; minValue is the least number
// of bytes one encoded value takes.
func decodeMap[V any](d *decoder, minValue int, value func(*decoder) V) map[string]V {
	u := d.uvarint()
	if u == 0 {
		return nil
	}
	n := d.check(u-1, 1+minValue)
	m := make(map[string]V, n)
	var prev string
	for i := 0; i < n && d.err == nil; i++ {
		k := d.string()
		if i > 0 && k <= prev {
			d.fail("map key %q after %q", k, prev)
		}
		m[k] = value(d)
		prev = k
	}
	return m
}

// decoder reads the entry codec. The first error sticks: every later
// read returns a zero value, so decoding code need not check after
// each field, and finish reports it.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("mcd: entry: "+format, args...)
	}
	d.b = nil
}

// finish returns the first decode error, or an error if bytes remain.
func (d *decoder) finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// uvarint reads a minimally encoded uvarint.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n != uvarintLen(v) {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a minimally encoded zigzag varint.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads an element count and checks it.
func (d *decoder) count(minLen int) int { return d.check(d.uvarint(), minLen) }

// check returns n if the bytes left can hold n elements of at least
// minLen bytes each, else fails.
func (d *decoder) check(n uint64, minLen int) int {
	if n > uint64(len(d.b)/minLen) {
		d.fail("%d elements of at least %d bytes in %d", n, minLen, len(d.b))
		return 0
	}
	return int(n)
}

// bytes returns the next n bytes, which count has checked are there.
func (d *decoder) bytes(n int) []byte {
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) string() string {
	return string(d.bytes(d.count(1)))
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("float64 past the end")
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.bytes(8)))
}

// floats reads a []float64 appendFloats wrote; empty decodes to nil.
func (d *decoder) floats() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.float()
	}
	return out
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag is the unsigned image binary.AppendVarint encodes x as.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

package mcd

// SeriesSectionLen is the length of s's entry-codec section: the bytes
// the series holds.
func SeriesSectionLen(s Series) int { return s.sectionLen() }

// SeriesSamples returns s's samples: nil for a nil series.
func SeriesSamples(s Series) []uint16 { return s.samples() }

// MarshalParts encodes r alone in the entry codec's Result form, the
// form a ChipResult holds each core in, its QueueSamples in the tail,
// so the codec tests can check it one core at a time.
func (r *Result) MarshalParts() (head, tail []byte, err error) {
	b := r.appendHead(make([]byte, 0, r.encodedLenHint()))
	h := len(b)
	b = r.appendTail(b)
	return b[:h:h], b[h:], nil
}

// UnmarshalParts decodes what MarshalParts encodes: head, then tail
// unless tail is nil. It replaces all of *r, and leaves *r unchanged
// on error.
func (r *Result) UnmarshalParts(head, tail []byte) error {
	d := decoder{b: head}
	var out Result
	out.decodeHead(&d)
	if err := d.finish(); err != nil {
		return err
	}
	if tail != nil {
		d = decoder{b: tail}
		out.decodeTail(&d)
		if err := d.finish(); err != nil {
			return err
		}
	}
	*r = out
	return nil
}

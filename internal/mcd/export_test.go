package mcd

// SeriesSectionLen is the length of s's entry-codec section: the bytes
// the series holds.
func SeriesSectionLen(s Series) int { return s.sectionLen() }

// SeriesSamples returns s's samples: nil for a nil series.
func SeriesSamples(s Series) []uint16 { return s.samples() }

// MarshalBinary encodes r alone in the entry codec's Result form, the
// form a ChipResult holds each core in, so the codec tests can check
// it one core at a time.
func (r *Result) MarshalBinary() ([]byte, error) {
	return r.appendBinary(make([]byte, 0, r.encodedLenHint())), nil
}

// UnmarshalBinary decodes what MarshalBinary encodes. It replaces all
// of *r, and leaves *r unchanged on error.
func (r *Result) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	var out Result
	out.decode(&d)
	if err := d.finish(); err != nil {
		return err
	}
	*r = out
	return nil
}

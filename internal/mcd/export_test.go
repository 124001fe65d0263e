package mcd

// SeriesSectionLen is the length of s's entry-codec section: the bytes
// the series holds.
func SeriesSectionLen(s Series) int { return s.sectionLen() }

// SeriesSamples returns s's samples: nil for a nil series.
func SeriesSamples(s Series) []uint16 { return s.samples() }

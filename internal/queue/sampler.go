package queue

// Sampler records a fixed-rate occupancy time series for one queue.
// The paper's controllers sample queue occupancy at 250 MHz; the same
// series feeds the spectral analysis of Section 5.2.
//
// An occupancy is a small non-negative integer, so each sample is
// recorded in two bytes. mcd.Config.Validate caps every sampled queue
// at 65535 entries, which keeps the conversion in Record exact. The
// run's Result keeps a compact copy (mcd.NewSeries), not this buffer.
type Sampler struct {
	samples []uint16
	limit   int
}

// NewSampler creates a sampler that retains at most limit samples
// (0 = unlimited). When the limit is hit, further samples are
// dropped, keeping long simulations bounded in memory while the
// controllers still run off live values.
func NewSampler(limit int) *Sampler {
	// Pre-size the series so steady sampling does not pay repeated
	// append regrowth copies; bounded so an unlimited sampler stays
	// cheap to construct.
	cap0 := 4096
	if limit > 0 && limit < cap0 {
		cap0 = limit
	}
	return &Sampler{limit: limit, samples: make([]uint16, 0, cap0)}
}

// Record appends one occupancy observation.
func (s *Sampler) Record(occ int) {
	if s.limit > 0 && len(s.samples) >= s.limit {
		return
	}
	s.samples = append(s.samples, uint16(occ))
}

// Samples returns the recorded series (not a copy; callers must not
// mutate it while the simulation is running).
func (s *Sampler) Samples() []uint16 { return s.samples }

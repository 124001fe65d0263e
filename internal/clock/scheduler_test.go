package clock

// Scheduler interleaves the clock edges of a set of domains in global
// time order, implementing the classic MCD co-simulation loop: at every
// step the domain with the earliest pending edge executes one cycle. It
// is the plain reference the Engine's arbitration is tested against.
type Scheduler struct {
	domains []*Domain
	now     Time
}

// NewScheduler creates a scheduler over the given domains.
func NewScheduler(domains ...*Domain) *Scheduler {
	return &Scheduler{domains: domains}
}

// Add registers another domain with the scheduler.
func (s *Scheduler) Add(d *Domain) { s.domains = append(s.domains, d) }

// Domains returns the registered domains in registration order.
func (s *Scheduler) Domains() []*Domain { return s.domains }

// Now returns the time of the most recently dispatched edge.
func (s *Scheduler) Now() Time { return s.now }

// Next returns the domain with the earliest pending clock edge and that
// edge's time, without consuming it. It returns (nil, Forever) when no
// domain is registered. Ties break by registration order, so a deterministic
// ordering of simultaneous edges is guaranteed.
func (s *Scheduler) Next() (*Domain, Time) {
	var best *Domain
	bestT := Forever
	for _, d := range s.domains {
		if t := d.NextEdge(); t < bestT {
			best, bestT = d, t
		}
	}
	return best, bestT
}

// Step consumes the earliest pending edge and returns the domain and the
// edge time. It returns (nil, Forever) when no domain is registered.
func (s *Scheduler) Step() (*Domain, Time) {
	d, t := s.Next()
	if d == nil {
		return nil, Forever
	}
	d.Advance()
	s.now = t
	return d, t
}

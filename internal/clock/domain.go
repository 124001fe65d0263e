package clock

import "fmt"

// TransitionStyle selects how a domain behaves while its frequency and
// voltage are physically slewing toward a new target (Section 3 of the
// paper distinguishes the two industrial models).
type TransitionStyle int

const (
	// XScale-style DVFS: the domain keeps executing through the
	// transition; there is no idle time waiting for the PLL.
	XScale TransitionStyle = iota
	// Transmeta-style DVFS: the domain idles until the transition
	// completes.
	Transmeta
)

// String implements fmt.Stringer.
func (s TransitionStyle) String() string {
	switch s {
	case XScale:
		return "xscale"
	case Transmeta:
		return "transmeta"
	default:
		return fmt.Sprintf("TransitionStyle(%d)", int(s))
	}
}

// DomainConfig parameterizes a clock domain.
type DomainConfig struct {
	Name string
	// FreqMHz is the initial clock frequency.
	FreqMHz float64
	// MinMHz and MaxMHz bound the controllable range; SetTarget clamps
	// to them. If both are zero the domain is fixed-frequency.
	MinMHz, MaxMHz float64
	// SlewPerMHz is the time needed to move the frequency by 1 MHz
	// (Table 1: 73.3 ns/MHz). Zero means instantaneous transitions.
	SlewPerMHz Time
	// JitterPS is the peak edge jitter in picoseconds (Table 1: ±110 ps,
	// normally distributed). It is interpreted as the 3-sigma point of a
	// zero-mean Gaussian, truncated at ±JitterPS.
	JitterPS float64
	// Style selects XScale or Transmeta transition behavior.
	Style TransitionStyle
	// Seed seeds the domain's private jitter RNG.
	Seed int64
}

// Domain is an independently clocked region of the processor. It is not
// safe for concurrent use; the simulator is single-threaded by design so
// that runs are deterministic.
type Domain struct {
	cfg DomainConfig

	// Frequency state. The instantaneous frequency slews linearly from
	// slewFromMHz (at slewStart) toward targetMHz.
	targetMHz   float64
	slewFromMHz float64
	slewStart   Time
	slewEnd     Time

	nextEdge Time
	cycles   uint64

	jitter *jitterRNG

	// transitions counts completed frequency-change requests, and
	// slewTime accumulates total time spent with the frequency moving;
	// both feed the DVFS-overhead accounting.
	transitions int
	slewTime    Time

	// Period memoization: outside transitions the frequency is constant
	// for long stretches, so the divide+round in PeriodForMHz is paid
	// once per frequency value instead of once per cycle.
	memoFreqMHz float64
	memoPeriod  Time
}

// NewDomain creates a domain whose first clock edge is at time 0.
func NewDomain(cfg DomainConfig) *Domain {
	if cfg.FreqMHz <= 0 {
		panic(fmt.Sprintf("clock: domain %q: non-positive initial frequency %g", cfg.Name, cfg.FreqMHz))
	}
	if cfg.MinMHz > cfg.MaxMHz {
		panic(fmt.Sprintf("clock: domain %q: MinMHz %g > MaxMHz %g", cfg.Name, cfg.MinMHz, cfg.MaxMHz))
	}
	d := &Domain{
		cfg:         cfg,
		targetMHz:   cfg.FreqMHz,
		slewFromMHz: cfg.FreqMHz,
		jitter:      newJitterRNG(cfg.Seed),
	}
	return d
}

// Name returns the domain's configured name.
func (d *Domain) Name() string { return d.cfg.Name }

// Cycles returns the number of clock edges executed so far.
func (d *Domain) Cycles() uint64 { return d.cycles }

// NextEdge returns the time of the domain's next clock edge.
func (d *Domain) NextEdge() Time { return d.nextEdge }

// FreqMHz returns the instantaneous frequency at time t, accounting for
// an in-progress transition.
func (d *Domain) FreqMHz(t Time) float64 {
	if d.slewEnd <= d.slewStart || t >= d.slewEnd {
		return d.targetMHz
	}
	if t <= d.slewStart {
		return d.slewFromMHz
	}
	frac := float64(t-d.slewStart) / float64(d.slewEnd-d.slewStart)
	return d.slewFromMHz + frac*(d.targetMHz-d.slewFromMHz)
}

// TargetMHz returns the frequency the domain is converging to.
func (d *Domain) TargetMHz() float64 { return d.targetMHz }

// InTransition reports whether the frequency is still slewing at time t.
func (d *Domain) InTransition(t Time) bool {
	return t < d.slewEnd
}

// Idle reports whether the domain must skip work at time t. Only
// Transmeta-style domains idle, and only while in transition.
func (d *Domain) Idle(t Time) bool {
	return d.cfg.Style == Transmeta && d.InTransition(t)
}

// SetTarget requests a frequency change to mhz, clamped to the domain's
// range, starting at time t. The instantaneous frequency slews linearly
// at the configured rate; with SlewPerMHz == 0 the change is immediate.
// Redundant requests (already at or slewing to mhz) are no-ops.
func (d *Domain) SetTarget(t Time, mhz float64) {
	if d.cfg.MaxMHz > 0 {
		if mhz > d.cfg.MaxMHz {
			mhz = d.cfg.MaxMHz
		}
		if mhz < d.cfg.MinMHz {
			mhz = d.cfg.MinMHz
		}
	}
	if mhz == d.targetMHz {
		return
	}
	cur := d.FreqMHz(t)
	d.slewFromMHz = cur
	d.slewStart = t
	d.targetMHz = mhz
	delta := mhz - cur
	if delta < 0 {
		delta = -delta
	}
	dur := Time(float64(d.cfg.SlewPerMHz) * delta)
	d.slewEnd = t + dur
	d.transitions++
	d.slewTime += dur
}

// Transitions returns the number of frequency-change requests accepted.
func (d *Domain) Transitions() int { return d.transitions }

// SlewTime returns the cumulative time spent in frequency transitions.
func (d *Domain) SlewTime() Time { return d.slewTime }

// Advance consumes the pending clock edge and schedules the next one. It
// returns the time of the consumed edge. The caller must perform exactly
// one cycle of domain work per Advance call.
func (d *Domain) Advance() Time {
	edge := d.nextEdge
	d.cycles++
	period := d.PeriodForFreq(d.FreqMHz(edge))
	next := edge + period + d.jitterSample()
	if next <= edge {
		next = edge + 1 // jitter must never stall or reverse time
	}
	d.nextEdge = next
	return edge
}

// PeriodForFreq returns PeriodForMHz(mhz) through the domain's
// single-entry memo. The mapping is identical to PeriodForMHz; only the
// repeated divide+round for an unchanged frequency is skipped.
func (d *Domain) PeriodForFreq(mhz float64) Time {
	if mhz != d.memoFreqMHz {
		d.memoFreqMHz = mhz
		d.memoPeriod = PeriodForMHz(mhz)
	}
	return d.memoPeriod
}

// jitterSample draws one edge-jitter value: zero-mean Gaussian with the
// configured peak treated as 3 sigma, truncated at the peak.
func (d *Domain) jitterSample() Time {
	if d.cfg.JitterPS <= 0 {
		return 0
	}
	sigma := d.cfg.JitterPS / 3
	j := d.jitter.normFloat64() * sigma
	if j > d.cfg.JitterPS {
		j = d.cfg.JitterPS
	} else if j < -d.cfg.JitterPS {
		j = -d.cfg.JitterPS
	}
	return Time(j * float64(Picosecond))
}

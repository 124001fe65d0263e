package baselines

import (
	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
	"mcddvfs/internal/isa"
)

// Global implements chip-coupled frequency scaling: a single adaptive
// decision engine driven by the *most loaded* queue, with all execution
// domains forced to the same frequency. It approximates conventional
// synchronous-chip DVFS inside the MCD simulator and exists to quantify
// the benefit of per-domain control (the MCD advantage the paper builds
// on): domains with idle queues cannot be slowed independently, so the
// chip follows its busiest domain.
//
// Global is a coordinator; attach one port per execution domain via
// Port. The port for the highest domain index closes each sampling tick
// by feeding the tick's maximum occupancy to the shared controller.
type Global struct {
	inner *control.Adaptive

	occ [isa.NumExecDomains]int

	target    float64
	hasTarget bool
	// generation increments on each new decision so every port relays
	// the change exactly once.
	generation int
}

// NewGlobal creates the coordinator. The shared decision engine uses
// the paper's adaptive configuration with the FP/LS reference point
// (the conservative choice for a chip-wide signal).
func NewGlobal(cfg control.Config) *Global {
	return &Global{inner: control.NewAdaptive(cfg)}
}

// Port returns the per-domain controller for domain d.
func (g *Global) Port(d isa.ExecDomain) *GlobalPort {
	return &GlobalPort{g: g, domain: d}
}

// GlobalPort adapts one domain's Observe stream onto the coordinator.
type GlobalPort struct {
	g      *Global
	domain isa.ExecDomain
	// seenGen is the last decision generation this port relayed.
	seenGen int
}

// Name implements the Controller interface.
func (p *GlobalPort) Name() string { return "global" }

// Reset implements the Controller interface.
func (p *GlobalPort) Reset() {
	if p.domain == 0 {
		p.g.inner.Reset()
		p.g.hasTarget = false
		p.g.generation = 0
	}
	p.seenGen = 0
}

// Observe implements the Controller interface. The simulator calls the
// ports in domain order within one sampling tick; the last port runs
// the shared decision.
func (p *GlobalPort) Observe(now clock.Time, occ int, cur float64) (float64, bool) {
	g := p.g
	g.occ[p.domain] = occ
	if int(p.domain) == isa.NumExecDomains-1 {
		maxOcc := g.occ[0]
		for _, o := range g.occ[1:] {
			if o > maxOcc {
				maxOcc = o
			}
		}
		if target, ok := g.inner.Observe(now, maxOcc, cur); ok {
			g.target = target
			g.hasTarget = true
			g.generation++
		}
	}
	if g.hasTarget && p.seenGen != g.generation {
		p.seenGen = g.generation
		return g.target, true
	}
	return 0, false
}

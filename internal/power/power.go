// Package power implements the Wattch-style energy model of the
// simulated MCD processor. Each clock domain carries an effective
// switched capacitance; per-cycle dynamic energy is C·V² scaled by unit
// activity, with aggressive conditional clock gating (the paper assumes
// "aggressive clock gating that is applied whenever the unit is not
// used"). Leakage is proportional to supply voltage and integrates over
// wall-clock time, so lowering a domain's V/f reduces both components.
//
// As in the paper's evaluation, only energy *ratios* between control
// schemes are meaningful; the capacitance constants are calibrated to
// plausible early-2000s absolute numbers purely for readable reports.
package power

import (
	"fmt"

	"mcddvfs/internal/clock"
)

// DomainModel parameterizes the energy behavior of one clock domain.
type DomainModel struct {
	// Name labels the domain in reports.
	Name string
	// SwitchedCapF is the effective switched capacitance (farads)
	// clocked per cycle at full activity.
	SwitchedCapF float64
	// GatedFraction is the fraction of a unit's dynamic energy still
	// spent when the unit is idle under clock gating (clock tree and
	// ungateable latches).
	GatedFraction float64
	// LeakagePerV is leakage power (watts) per volt of supply.
	LeakagePerV float64
}

// Validate checks the model's physical sanity.
func (m DomainModel) Validate() error {
	if m.SwitchedCapF <= 0 {
		return fmt.Errorf("power: domain %q: non-positive capacitance", m.Name)
	}
	if m.GatedFraction < 0 || m.GatedFraction > 1 {
		return fmt.Errorf("power: domain %q: gated fraction %g outside [0,1]", m.Name, m.GatedFraction)
	}
	if m.LeakagePerV < 0 {
		return fmt.Errorf("power: domain %q: negative leakage", m.Name)
	}
	return nil
}

// DefaultModels returns calibrated per-domain models for the paper's
// 4-domain machine. The split (front end largest, then LS, INT, FP)
// follows the Wattch-reported distribution for a comparable core.
// Capacitances are chosen so the whole chip dissipates ~50 W of dynamic
// power at 1 GHz / 1.2 V full activity, with leakage ~10 % of that.
func DefaultModels() map[string]DomainModel {
	mk := func(name string, fullW float64) DomainModel {
		const vmax, fmax = 1.2, 1e9
		return DomainModel{
			Name:          name,
			SwitchedCapF:  fullW / (vmax * vmax * fmax),
			GatedFraction: 0.10,
			LeakagePerV:   0.10 * fullW / vmax,
		}
	}
	return map[string]DomainModel{
		"FrontEnd": mk("FrontEnd", 15),
		"INT":      mk("INT", 12),
		"FP":       mk("FP", 10),
		"LS":       mk("LS", 13),
	}
}

// Meter accumulates the energy of one domain.
type Meter struct {
	model DomainModel

	dynamicJ float64
	leakageJ float64
	lastLeak clock.Time
	cycles   uint64
	actSum   float64
}

// NewMeter creates a meter for the given model.
func NewMeter(model DomainModel) *Meter {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	return &Meter{model: model}
}

// Cycle charges one clock cycle's dynamic energy at supply voltage v
// with the given activity factor in [0,1] (fraction of the domain's
// capacitance actually switched; idle capacitance still pays the gated
// fraction).
func (m *Meter) Cycle(v, activity float64) {
	if activity < 0 {
		activity = 0
	} else if activity > 1 {
		activity = 1
	}
	g := m.model.GatedFraction
	eff := g + (1-g)*activity
	m.dynamicJ += m.model.SwitchedCapF * v * v * eff
	m.cycles++
	m.actSum += activity
}

// CycleDeepGated charges one cycle at a deep-gating factor: the whole
// domain's clock is gated off (domain sleep), leaving only the given
// fraction of the full-activity dynamic energy (ungateable global
// clock buffers). Used when a domain has an empty queue and no work in
// flight.
func (m *Meter) CycleDeepGated(v, factor float64) {
	if factor < 0 {
		factor = 0
	} else if factor > 1 {
		factor = 1
	}
	m.dynamicJ += m.model.SwitchedCapF * v * v * factor
	m.cycles++
}

// IdleCharge is the precomputed per-cycle energy effect of a domain
// that is doing no work at a fixed supply voltage: the event engine's
// fast path for descheduled domains. Tick(now) is bit-identical to the
// slow path's Cycle(v, 0)+Leak(now, v) (or CycleDeepGated+Leak for a
// deep-gated domain): the dynamic increment and the leakage-per-second
// product are precomputed with the exact expression shapes the slow
// path evaluates, so replaying N idle cycles through Tick accumulates
// the identical float64 stream. An idle cycle's activity term
// (actSum += 0) is skipped: adding +0 to a non-negative sum is a
// bitwise no-op.
//
// The charge is only valid while the voltage is fixed; recompute it
// after any frequency/voltage transition.
type IdleCharge struct {
	m   *Meter
	dyn float64 // per-cycle dynamic increment at the idle activity
	lv  float64 // leakage watts at v: multiplied by dt per cycle
}

// IdleCharge prepares the fast-path charge equivalent to
// Cycle(v, 0)+Leak(now, v) per tick.
func (m *Meter) IdleCharge(v float64) IdleCharge {
	g := m.model.GatedFraction
	eff := g + (1-g)*0
	return IdleCharge{
		m:   m,
		dyn: m.model.SwitchedCapF * v * v * eff,
		lv:  m.model.LeakagePerV * v,
	}
}

// DeepIdleCharge prepares the fast-path charge equivalent to
// CycleDeepGated(v, factor)+Leak(now, v) per tick.
func (m *Meter) DeepIdleCharge(v, factor float64) IdleCharge {
	if factor < 0 {
		factor = 0
	} else if factor > 1 {
		factor = 1
	}
	return IdleCharge{
		m:   m,
		dyn: m.model.SwitchedCapF * v * v * factor,
		lv:  m.model.LeakagePerV * v,
	}
}

// Tick charges one descheduled cycle at time now.
func (c IdleCharge) Tick(now clock.Time) {
	m := c.m
	m.dynamicJ += c.dyn
	m.cycles++
	if now <= m.lastLeak {
		m.lastLeak = now
		return
	}
	dt := (now - m.lastLeak).Seconds()
	m.leakageJ += c.lv * dt
	m.lastLeak = now
}

// Leak integrates leakage from the last leakage timestamp to now at
// supply voltage v. Call it whenever the voltage changes and at the end
// of simulation.
func (m *Meter) Leak(now clock.Time, v float64) {
	if now <= m.lastLeak {
		m.lastLeak = now
		return
	}
	dt := (now - m.lastLeak).Seconds()
	m.leakageJ += m.model.LeakagePerV * v * dt
	m.lastLeak = now
}

// DynamicJ returns accumulated dynamic energy in joules.
func (m *Meter) DynamicJ() float64 { return m.dynamicJ }

// LeakageJ returns accumulated leakage energy in joules.
func (m *Meter) LeakageJ() float64 { return m.leakageJ }

// TotalJ returns total energy in joules.
func (m *Meter) TotalJ() float64 { return m.dynamicJ + m.leakageJ }

// AddJ charges an unstructured energy cost (e.g. regulator switching
// energy per DVFS transition, when that ablation is enabled).
func (m *Meter) AddJ(j float64) { m.dynamicJ += j }

// MeanActivity returns the average activity factor over charged cycles.
func (m *Meter) MeanActivity() float64 {
	if m.cycles == 0 {
		return 0
	}
	return m.actSum / float64(m.cycles)
}

// Metrics is the energy/performance outcome of one simulation run.
type Metrics struct {
	// EnergyJ is total chip energy.
	EnergyJ float64
	// ExecTime is the simulated execution time.
	ExecTime clock.Time
	// Instructions retired.
	Instructions int64
}

// EDP returns the energy-delay product (J·s).
func (m Metrics) EDP() float64 { return m.EnergyJ * m.ExecTime.Seconds() }

// IPS returns retired instructions per simulated second.
func (m Metrics) IPS() float64 {
	if m.ExecTime <= 0 {
		return 0
	}
	return float64(m.Instructions) / m.ExecTime.Seconds()
}

// Comparison summarizes a controlled run against a baseline run, using
// the paper's three headline metrics.
type Comparison struct {
	// EnergySaving is 1 − E/E_base (positive = saved energy).
	EnergySaving float64
	// PerfDegradation is T/T_base − 1 (positive = slower).
	PerfDegradation float64
	// EDPImprovement is 1 − EDP/EDP_base (positive = better).
	EDPImprovement float64
}

// Compare computes the paper's metrics for run m against base.
func Compare(base, m Metrics) Comparison {
	c := Comparison{}
	if base.EnergyJ > 0 {
		c.EnergySaving = 1 - m.EnergyJ/base.EnergyJ
	}
	if base.ExecTime > 0 {
		c.PerfDegradation = float64(m.ExecTime)/float64(base.ExecTime) - 1
	}
	if b := base.EDP(); b > 0 {
		c.EDPImprovement = 1 - m.EDP()/b
	}
	return c
}

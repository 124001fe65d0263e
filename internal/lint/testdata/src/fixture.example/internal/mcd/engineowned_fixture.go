package mcd

import "fixture.example/internal/clock"

// StepDirectly polls a domain edge-by-edge from outside the engine:
// exactly the per-cycle pattern engineowned exists to catch.
func StepDirectly(d *clock.Domain) uint64 {
	return d.Advance() // want engineowned `outside the engine`
}

// StepViaEngine is the sanctioned idiom: register the domain and let
// the engine advance it. No diagnostic.
func StepViaEngine(e *clock.Engine, d *clock.Domain) {
	e.Register(d)
	e.Advance()
}

// Advance on an unrelated local type must not trip the analyzer: only
// clock.Domain's Advance is engine-owned.
type watchdog struct{ ticks int }

func (w *watchdog) Advance() { w.ticks++ }

// KickWatchdog exercises the same method name on a non-Domain
// receiver. No diagnostic.
func KickWatchdog(w *watchdog) {
	w.Advance()
}

// BootstrapDomain is order-sensitive setup that genuinely needs one
// direct edge before the engine takes ownership; the escape hatch must
// silence the diagnostic (no want here).
func BootstrapDomain(d *clock.Domain) uint64 {
	//lint:allow engineowned fixture demonstrates the escape hatch
	return d.Advance()
}

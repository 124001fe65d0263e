// Package clock is a lint fixture. Its import path ends in
// internal/clock, so it stands in for the real clock package: the
// engineowned analyzer exempts it (the engine lives here and is the
// sanctioned caller of Domain.Advance), and other packages that call
// it directly get flagged.
package clock

// Domain is a minimal stand-in for the real clock.Domain.
type Domain struct {
	now uint64
}

// Advance moves the domain's clock to its next edge. Outside this
// package only the engine may call it.
func (d *Domain) Advance() uint64 {
	d.now++
	return d.now
}

// Engine owns registered domains; advancing through it is the
// sanctioned idiom and must stay diagnostic-free in-package.
type Engine struct {
	domains []*Domain
}

// Register hands a domain to the engine.
func (e *Engine) Register(d *Domain) {
	e.domains = append(e.domains, d)
}

// Advance steps every registered domain: legal, it lives in
// internal/clock.
func (e *Engine) Advance() {
	for _, d := range e.domains {
		d.Advance()
	}
}

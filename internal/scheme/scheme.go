// Package scheme is the registry of DVFS control schemes. Every scheme
// the harness can run — the paper's adaptive controller, the prior-work
// fixed-interval baselines, and any extension — self-registers a
// Descriptor at init time; every dispatch site in the repository
// (attach, validation, matrix building, report/SVG column ordering,
// CLI parsing and -h listings) derives its behavior from the registry
// instead of switching on a scheme name.
//
// Adding a scheme is therefore one new file in this package (plus its
// controller implementation wherever it lives): write a Descriptor,
// call Register from the file's init, and the experiment harness, both
// CLIs, and the public API pick it up with zero edits elsewhere. The
// mcdlint schemeswitch analyzer enforces the other direction: a
// switch-on-Scheme outside this package fails `make lint`, so dispatch
// cannot silently re-fragment. The registry is an
// internal/registry.Registry, the store internal/governor is built on
// too. See docs/ARCHITECTURE.md, "Scheme registry", for the
// walkthrough.
package scheme

import (
	"fmt"

	"mcddvfs/internal/control"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/registry"
)

// Options carries the per-run knobs a scheme's Validate and Attach
// hooks may consult. It is the registry-facing projection of
// experiment.Options (which cannot be imported here without a cycle):
// the experiment harness converts before dispatching.
type Options struct {
	// Machine, when non-nil, is the machine configuration override the
	// run uses; the adaptive scheme inspects it for a DVFS-controllable
	// dispatch domain (Config.ControlFrontEnd).
	Machine *mcd.Config
	// MutateAdaptive, when non-nil, adjusts each adaptive controller's
	// configuration before attachment (the ablation hook).
	MutateAdaptive func(*control.Config)
	// PIDIntervalTicks overrides the PID decision interval (0 = the
	// 2500-tick default) — the Table-3 sweep knob.
	PIDIntervalTicks int
}

// Descriptor is one scheme's self-description: everything a dispatch
// site needs to validate, construct, list, or order the scheme without
// knowing it by name.
type Descriptor struct {
	// Name is the stable external identifier: CLI flag value, cache-key
	// component, Result.Scheme label, report column header. Renaming a
	// registered scheme is a breaking change (it retires disk-cache
	// entries and breaks saved artifacts); don't.
	Name string
	// Order fixes the display and iteration order everywhere schemes
	// are enumerated (matrix columns, -h listings, Schemes()). Every
	// registered scheme needs a distinct Order so artifacts stay
	// byte-stable no matter the registration sequence.
	Order int
	// Controlled marks schemes that actually scale frequency; the
	// no-DVFS baseline is the one registered scheme without it.
	Controlled bool
	// Extension marks schemes outside the paper's core comparison
	// (adaptive vs pid vs attack-decay). Extensions never join the
	// default matrix or sweep sets — they run only when requested
	// explicitly — so pre-existing artifacts stay byte-identical as
	// new schemes register.
	Extension bool
	// Description is the one-line summary shown by CLI -h listings and
	// the public Schemes() API.
	Description string
	// Validate, when non-nil, front-loads per-scheme option checks so
	// bad specs surface at the API boundary (wrapped in ErrInvalidSpec
	// by the caller) instead of as panics mid-simulation.
	Validate func(opt Options) error
	// Attach wires the scheme's controllers onto a constructed
	// processor. It must be deterministic and must not retain opt.
	Attach func(p *mcd.Processor, opt Options) error
}

// schemes holds every registered descriptor.
var schemes = registry.New[Descriptor]("scheme")

// Register adds a scheme to the registry. It panics on a nil Attach
// hook, and as registry.Registry.Add documents on a bad name or order:
// every one of these is a programming error that must surface at init
// time, not as a silently shadowed scheme at run time.
func Register(d Descriptor) {
	if d.Attach == nil {
		panic(fmt.Sprintf("scheme: %q registered without an Attach hook", d.Name))
	}
	schemes.Add(d.Name, d.Order, d)
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (Descriptor, bool) { return schemes.Lookup(name) }

// All returns every registered descriptor in display order. The slice
// is freshly allocated; callers may keep or mutate it.
func All() []Descriptor { return schemes.All() }

// Default returns the paper's core comparison set — the controlled,
// non-extension schemes — in display order. This is the column set of
// every default artifact, so its contents and order are part of the
// byte-stability contract.
func Default() []Descriptor {
	var out []Descriptor
	for _, d := range All() {
		if d.Controlled && !d.Extension {
			out = append(out, d)
		}
	}
	return out
}

// NamesList renders the registered names in display order as one
// comma-separated string for error messages and flag usage texts.
func NamesList() string { return schemes.NamesList() }

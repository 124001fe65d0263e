// Package governor is the registry of chip-level power-cap governors.
// Every policy the chip harness can run — the no-op baseline, the naive
// per-core static split, and the Chen/Wardi/Yalamanchili-style integral
// regulator — self-registers a Descriptor at init time; every dispatch
// site in the repository (chip construction, validation, CLI parsing
// and -h listings, mcdserve spec validation) derives its behavior from
// the registry instead of switching on a governor name. The registry
// is an internal/registry.Registry, the store internal/scheme is built
// on too, so both enforce one set of name and order rules.
//
// Adding a governor is one new file in this package: write an
// mcd.Governor implementation and a Descriptor, call Register from the
// file's init, and the experiment harness, both CLIs, and the service
// pick it up with zero edits elsewhere. See docs/ARCHITECTURE.md,
// "Chip model & governor", for the walkthrough.
package governor

import (
	"fmt"

	"mcddvfs/internal/dvfs"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/registry"
)

// Options carries the per-run knobs a governor's Validate and New
// hooks may consult. It is the registry-facing projection of
// experiment.Options plus the chip facts a policy needs.
type Options struct {
	// Cores is the chip's core count; every New hook sizes its state
	// from it.
	Cores int
	// BudgetW is the chip-wide power budget to hold (Options.PowerCapW
	// at the harness layer).
	BudgetW float64
	// GainMHzPerW is the integral gain in MHz of frequency allowance
	// per watt of budget error per epoch (0 = the governor's default).
	GainMHzPerW float64
	// Range is the per-core DVFS range caps must respect.
	Range dvfs.Range
}

// Descriptor is one governor's self-description: everything a dispatch
// site needs to validate, construct, list, or order the governor
// without knowing it by name.
type Descriptor struct {
	// Name is the stable external identifier: CLI flag value, cache-key
	// component, RenderRequest field. Renaming a registered governor is
	// a breaking change (it retires disk-cache entries); don't.
	Name string
	// Order fixes the display and iteration order everywhere governors
	// are enumerated. Every registered governor needs a distinct Order
	// so listings stay byte-stable no matter the registration sequence.
	Order int
	// Capping marks governors that actually impose frequency caps; the
	// "none" baseline is the one registered governor without it. Only
	// capping governors accept a power budget.
	Capping bool
	// Description is the one-line summary shown by CLI -h listings and
	// the public Governors() API.
	Description string
	// Validate, when non-nil, front-loads per-governor option checks so
	// bad specs surface at the API boundary (wrapped in ErrInvalidSpec
	// by the caller) instead of as panics mid-simulation.
	Validate func(opt Options) error
	// New constructs the policy instance a Chip will consult each
	// epoch. A nil returned Governor means "run free": the chip skips
	// epoch barriers entirely (how "none" keeps the single-core path
	// bit-identical). New must be deterministic and must not retain opt.
	New func(opt Options) (mcd.Governor, error)
}

// DefaultName is the governor every run gets when none is requested:
// the no-op baseline, so plain single-core runs never see a barrier.
const DefaultName = "none"

// governors holds every registered descriptor.
var governors = registry.New[Descriptor]("governor")

// Register adds a governor to the registry. It panics on a nil New
// hook, and as registry.Registry.Add documents on a bad name or order:
// every one of these is a programming error that must surface at init
// time, not as a silently shadowed governor at run time.
func Register(d Descriptor) {
	if d.New == nil {
		panic(fmt.Sprintf("governor: %q registered without a New hook", d.Name))
	}
	governors.Add(d.Name, d.Order, d)
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (Descriptor, bool) { return governors.Lookup(name) }

// All returns every registered descriptor in display order. The slice
// is freshly allocated; callers may keep or mutate it.
func All() []Descriptor { return governors.All() }

// NamesList renders the registered names in display order as one
// comma-separated string for error messages and flag usage texts.
func NamesList() string { return governors.NamesList() }

// validateBudget is the shared Validate hook of every capping
// governor: a power budget is mandatory and must be positive.
func validateBudget(opt Options) error {
	if opt.BudgetW <= 0 {
		return fmt.Errorf("governor: a capping governor needs a positive power budget (got %v W)", opt.BudgetW)
	}
	if opt.Cores <= 0 {
		return fmt.Errorf("governor: invalid core count %d", opt.Cores)
	}
	if opt.GainMHzPerW < 0 {
		return fmt.Errorf("governor: negative gain %v MHz/W", opt.GainMHzPerW)
	}
	return nil
}

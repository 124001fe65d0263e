// Package lint hosts mcdlint's analyzers: repo-specific invariant
// checkers for the determinism and cancellation contracts the
// simulator and experiment harness promise (see docs/LINTING.md).
//
// The invariants, and the analyzer that owns each:
//
//   - Simulation output is bit-identical for identical configs.
//     detrange forbids order-dependent iteration over maps, and
//     detsource forbids wall-clock, global-randomness, and
//     pointer-formatting inputs, in the simulator packages.
//   - The experiment harness is cancellable and panic-safe.
//     ctxflow enforces context acceptance, propagation, and polling;
//     errtaxonomy keeps every error crossing the harness boundary
//     attached to the ErrInvalidSpec/ErrRunTimeout/ErrCancelled/
//     ErrRunPanicked taxonomy.
//   - DVFS schemes are self-describing plugins.
//     schemeswitch forbids switch dispatch on Scheme values anywhere
//     but the scheme registry (internal/scheme), so per-scheme
//     behavior cannot fragment back into call sites.
//   - The event engine owns registered domains.
//     engineowned forbids direct clock.Domain.Advance calls outside
//     internal/clock, so the engine's cached edge times stay
//     coherent and per-cycle polling cannot creep back in.
//
// Three analyzers are whole-program rather than per-package, built on
// the call graph in graph.go:
//
//   - Nondeterminism cannot reach the simulator from anywhere.
//     dettaint propagates taint from every nondeterminism source
//     (wall clock, global rand, filesystem enumeration, multi-ready
//     select, %p, unordered map iteration) across the repo call graph
//     and fails if any source is reachable from the simulation entry
//     points — including through helpers in packages the per-package
//     analyzers never look at.
//   - The content-addressed cache key is complete.
//     cachekey proves every Options field the run path reads is hashed
//     (or explicitly exempted).
//   - Every function has a caller outside the tests.
//     unreachable reports functions that no command, init, root-package
//     API, package var, external interface or companion module reaches.
package lint

import (
	"strings"

	"mcddvfs/internal/lint/analysis"
	"mcddvfs/internal/lint/load"
)

// simPackages are the deterministic-simulation packages: everything
// that executes between a Config and a Result. Matched by import-path
// suffix so the fixture module under testdata is covered by the same
// rules as the real tree.
var simPackages = []string{
	"internal/mcd",
	"internal/clock",
	"internal/dvfs",
	"internal/baselines",
	"internal/faults",
	"internal/queue",
}

// renderPackages extends the detrange scope to the experiment harness:
// artifacts (tables, figures, SVGs) must also be byte-identical across
// runs, so report rendering may not depend on map iteration order
// either.
var renderPackages = append([]string{"internal/experiment"}, simPackages...)

// harnessPackages are where the cancellation and error-taxonomy
// contracts live: the experiment harness, the HTTP service that fronts
// it, and the single-flight primitive that starts both layers' shared
// work on its own goroutines.
var harnessPackages = []string{"internal/experiment", "internal/serve", "internal/flight"}

// fsListPackages extends detsource's filesystem-enumeration ban to the
// trace corpus and experiment harness: directory listing order is host
// state (filesystems disagree about it), and both corpus resolution
// and artifact generation feed the bit-identical-output contract.
// Listings these packages genuinely need must go through
// internal/detfs.SortedNames, the one audited enumeration site.
var fsListPackages = append([]string{"internal/trace", "internal/experiment"}, simPackages...)

// inScope reports whether an import path matches one of the scope
// suffixes ("internal/mcd" matches both "mcddvfs/internal/mcd" and the
// fixture module's "fixture.example/internal/mcd").
func inScope(pkgPath string, scope []string) bool {
	for _, s := range scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// Analyzers returns the full mcdlint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetRange,
		DetSource,
		CtxFlow,
		ErrTaxonomy,
		SchemeSwitch,
		EngineOwned,
		DetTaint,
		CacheKey,
		Unreachable,
	}
}

// Targets adapts loaded packages to the driver's view.
func Targets(pkgs []*load.Package) []*analysis.Target {
	out := make([]*analysis.Target, len(pkgs))
	for i, p := range pkgs {
		out[i] = &analysis.Target{Fset: p.Fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info,
			ModulePath: p.ModulePath, ModuleDir: p.ModuleDir}
	}
	return out
}

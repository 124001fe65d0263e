package lint

import (
	"mcddvfs/internal/lint/analysis"
)

// DetTaint is the interprocedural extension of detsource/detrange: it
// builds the whole-program call graph (see graph.go), marks every
// nondeterminism source — wall clock, global math/rand, filesystem
// enumeration, multi-ready select, %p formatting, order-dependent map
// iteration — and fails when any source is transitively reachable from
// the simulation entry points. The per-package analyzers can only
// inspect a hard-coded package list; dettaint closes the gap where a
// helper in, say, internal/stats leaks time.Now into a controller
// through two call hops and an interface.
//
// Entry points are every function declared in the taint-root packages:
// the simulator core (internal/mcd), the event engine and its handlers
// (internal/clock), scheme Attach/Validate hooks (internal/scheme),
// and trace generation/replay (internal/trace). Anything those can
// call, transitively — through direct calls, method values, closures,
// or conservative interface dispatch — must be deterministic.
//
// Division of labor with the per-package analyzers: inside detsource's
// scope, wall-clock/global-rand/%p sources are detsource's findings
// (reported with its messages), inside detrange's scope map-range
// sources are detrange's, and inside the fsListPackages scope
// filesystem-enumeration sources are detsource's too; dettaint reports
// only sources those analyzers cannot see. Multi-ready-select sources
// are dettaint's alone and are reported everywhere reachable.
//
// Each diagnostic carries the full reachability path from an entry
// point to the source, so the fix target is explicit: either break the
// path (stop calling the tainted helper) or remove the source.
var DetTaint = &analysis.Analyzer{
	Name:       "dettaint",
	Doc:        "forbids nondeterminism sources transitively reachable from the simulation entry points",
	RunProgram: runDetTaint,
}

// taintRootPackages are the entry-point packages: every function they
// declare is a root of the reachability analysis.
var taintRootPackages = []string{
	"internal/mcd",
	"internal/clock",
	"internal/scheme",
	"internal/trace",
	// Since the multi-core chip PR: a governor's Apportion runs inside
	// the simulation loop at every epoch barrier, so any nondeterminism
	// it reaches lands in chip results.
	"internal/governor",
}

func runDetTaint(pass *analysis.ProgramPass) error {
	g := buildGraph(pass.Targets, pass.Fset, false)

	var roots []*graphNode
	for _, n := range g.order {
		if inScope(n.fn.Pkg().Path(), taintRootPackages) {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	parent := reachableFrom(roots)

	for _, n := range g.order {
		if _, reachable := parent[n]; !reachable {
			continue
		}
		pkgPath := n.fn.Pkg().Path()
		for _, s := range n.sources {
			if ownedBySiblingAnalyzer(s.kind, pkgPath) {
				continue
			}
			pass.Reportf(s.pos, "%s is reachable from the simulation entry points via %s; %s",
				s.what, pathTo(parent, n), s.fix)
		}
	}
	return nil
}

// ownedBySiblingAnalyzer reports whether a source of the given kind in
// the given package is already the finding of a per-package analyzer,
// so dettaint stays silent there instead of double-reporting the same
// line under two names.
func ownedBySiblingAnalyzer(kind, pkgPath string) bool {
	switch kind {
	case "wallclock", "globalrand", "ptrformat":
		return inScope(pkgPath, simPackages) // detsource's scope
	case "fsorder":
		return inScope(pkgPath, fsListPackages) // detsource's fs scope
	case "maprange":
		return inScope(pkgPath, renderPackages) // detrange's scope
	}
	return false
}

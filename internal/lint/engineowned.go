package lint

import (
	"go/ast"
	"go/types"

	"mcddvfs/internal/lint/analysis"
)

// EngineOwned forbids advancing a clock.Domain directly from simulator
// code outside internal/clock. The event engine owns
// registered domains: it caches every domain's next-edge time in a
// flat slice so edge arbitration is a scan instead of a pointer chase,
// and that cache is only coherent because all clock mutation flows
// through Engine.Advance / Engine.IdleAdvance. A direct
// Domain.Advance call is also the signature of per-cycle polling — the
// cycle-stepping pattern the event core replaced — so new code paths
// that bypass the engine are caught at lint time rather than as a
// stale-cache heisenbug or a silent throughput regression.
//
// internal/clock itself is exempt (the engine is the sanctioned
// caller), as is everything outside the simulator scope.
var EngineOwned = &analysis.Analyzer{
	Name: "engineowned",
	Doc:  "forbids direct clock.Domain.Advance (per-cycle polling) outside the engine package",
	Run:  runEngineOwned,
}

func runEngineOwned(pass *analysis.Pass) error {
	pkg := pass.Pkg.Path()
	if !inScope(pkg, simPackages) || inScope(pkg, []string{"internal/clock"}) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Name() != "Advance" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Name() != "Domain" {
				return true
			}
			if owner := named.Obj().Pkg(); owner == nil || !inScope(owner.Path(), []string{"internal/clock"}) {
				return true
			}
			pass.Reportf(sel.Sel.Pos(),
				"clock.Domain.Advance called outside the engine; engine-owned domains advance through clock.Engine (Advance/IdleAdvance) so cached edge times stay coherent")
			return true
		})
	}
	return nil
}

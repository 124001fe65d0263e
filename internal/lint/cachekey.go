package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"mcddvfs/internal/lint/analysis"
)

// CacheKey proves the content-addressed cache's completeness contract:
// every field of the harness Options struct that the run path actually
// consumes must either be written into the cache-key hash or carry an
// explicit //lint:allow cachekey exemption stating why it cannot
// change a result. A field that is read by the simulation but absent
// from the hash is the stale-cache bug class — two different
// computations sharing one cached result.
//
// The analyzer activates on an options package, matched by
// convention: one that declares `type Options struct` and a function
// `cacheKey`. The run path is every function reachable (via the
// whole-program call graph) from the package's exported Run* entry
// points; the hash covers every Options field read by cacheKey or
// anything cacheKey calls.
var CacheKey = &analysis.Analyzer{
	Name:       "cachekey",
	Doc:        "proves every run-path Options field is hashed into the cache key",
	RunProgram: runCacheKey,
}

func runCacheKey(pass *analysis.ProgramPass) error {
	g := buildGraph(pass.Targets, pass.Fset, false)
	for _, t := range pass.Targets {
		analyzeHarness(pass, g, t)
	}
	return nil
}

// structNamed returns the struct type declared as `name` in pkg's
// scope, or nil.
func structNamed(pkg *types.Package, name string) *types.Struct {
	obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	st, _ := obj.Type().Underlying().(*types.Struct)
	return st
}

// fieldOfStruct reports whether sel selects a field of the named
// struct (matched by type name and package path, so it holds whether
// the struct is seen from source or from export data), returning the
// field's name.
func fieldOfStruct(info *types.Info, sel *ast.SelectorExpr, structName, pkgPath string) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	if named.Obj().Name() != structName || named.Obj().Pkg().Path() != pkgPath {
		return "", false
	}
	return s.Obj().Name(), true
}

// fieldMentions records every mention (read or write) of the given
// struct's fields inside the nodes' bodies, with the first position.
func fieldMentions(nodes []*graphNode, structName, pkgPath string) map[string]token.Pos {
	out := make(map[string]token.Pos)
	for _, n := range nodes {
		if n.decl.Body == nil {
			continue
		}
		info := n.target.Info
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			sel, ok := node.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name, ok := fieldOfStruct(info, sel, structName, pkgPath); ok {
				if p, seen := out[name]; !seen || sel.Sel.Pos() < p {
					out[name] = sel.Sel.Pos()
				}
			}
			return true
		})
	}
	return out
}

// reachedNodes flattens a reachability map into declaration order.
func reachedNodes(g *progGraph, parent map[*graphNode]parentEdge) []*graphNode {
	var out []*graphNode
	for _, n := range g.order {
		if _, ok := parent[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// analyzeHarness checks one candidate options package and reports
// run-path fields missing from the hash. It does nothing when t is not
// an options package.
func analyzeHarness(pass *analysis.ProgramPass, g *progGraph, t *analysis.Target) {
	st := structNamed(t.Pkg, "Options")
	if st == nil {
		return
	}
	keyFn, ok := t.Pkg.Scope().Lookup("cacheKey").(*types.Func)
	if !ok {
		return
	}
	keyNode, ok := g.nodes[symbolKey(keyFn)]
	if !ok {
		return
	}
	pkgPath := t.Pkg.Path()

	var runRoots []*graphNode
	for _, n := range g.order {
		if n.target != t {
			continue
		}
		name := n.fn.Name()
		if n.fn.Exported() && len(name) >= 3 && name[:3] == "Run" {
			runRoots = append(runRoots, n)
		}
	}

	covered := fieldMentions(reachedNodes(g, reachableFrom([]*graphNode{keyNode})), "Options", pkgPath)
	usedAt := fieldMentions(reachedNodes(g, reachableFrom(runRoots)), "Options", pkgPath)

	// Report, in field-declaration order, every run-path field the hash
	// misses. The //lint:allow cachekey escape hatch on the field's
	// declaration documents deliberate exclusions (selection knobs,
	// attempt bounds, storage locations).
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		pos, used := usedAt[f.Name()]
		if _, hashed := covered[f.Name()]; !used || hashed {
			continue
		}
		p := pass.Fset.Position(pos)
		pass.Reportf(f.Pos(),
			"Options.%s is read on the run path (%s:%d) but never enters the cacheKey hash; hash it or exempt it with //lint:allow cachekey <reason>",
			f.Name(), filepath.Base(p.Filename), p.Line)
	}
}

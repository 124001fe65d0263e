package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mcddvfs/internal/lint/analysis"
)

// This file is the interprocedural half of mcdlint: a whole-program
// call graph over every loaded target package, shared by the dettaint,
// cachekey and unreachable analyzers.
//
// Targets are type-checked independently against compiled export data
// (see internal/lint/load), so a *types.Func observed from a caller's
// package is a different object than the same function seen from its
// own package. Nodes are therefore keyed by a stable symbol string —
// "pkgpath.Func" or "pkgpath.(Recv).Method" — which is identical in
// both views.
//
// Edges are conservative in three deliberate ways:
//
//   - Referencing a function is an edge. A method value, a callback
//     passed to a worker pool, an event handler registered with the
//     engine — any mention of a declared function counts as a possible
//     call, because a reference that is never invoked costs a false
//     edge while a missed invocation would hide a taint path.
//   - Interface dispatch fans out to every declared method with the
//     same name and arity. Matching by method-set implementation is
//     impossible across independently checked packages (named types
//     from source and from export data are distinct objects), so the
//     graph taints all plausible implementers instead — exactly the
//     conservative choice the determinism contract wants.
//   - Function literals belong to their enclosing declaration. A
//     closure's body (calls, sources) is attributed to the function
//     that lexically contains it, so a tainted closure taints the
//     function that built it.
//
// The known gap: a method that is never referenced by name and never
// matches an interface call site's name/arity is invisible (e.g. a
// sort.Interface passed as a value into the standard library). The
// per-package analyzers still cover those bodies where it matters.

// graphNode is one declared function or method in a target package.
type graphNode struct {
	key     string // stable symbol key (see symbolKey)
	fn      *types.Func
	decl    *ast.FuncDecl
	target  *analysis.Target
	edges   []graphEdge
	sources []taintSource
}

// graphEdge is one possible call from a node.
type graphEdge struct {
	to  *graphNode
	via string // "call" (direct reference) or "iface" (dispatch fan-out)
}

// taintSource is one nondeterminism source inside a function body.
type taintSource struct {
	pos  token.Pos
	kind string // "wallclock", "globalrand", "fsorder", "select", "ptrformat", "maprange"
	what string // human description of the source
	fix  string // remediation advice
}

// progGraph is the whole-program call graph.
type progGraph struct {
	fset  *token.FileSet
	nodes map[string]*graphNode
	// order lists every node sorted by declaration position, so all
	// traversals (and thus all diagnostics and parent choices) are
	// deterministic.
	order []*graphNode
}

// buildGraph constructs the call graph over all target packages.
func buildGraph(targets []*analysis.Target, fset *token.FileSet) *progGraph {
	g := &progGraph{fset: fset, nodes: make(map[string]*graphNode)}

	// Pass 1: index every declared function and method.
	for _, t := range targets {
		for _, f := range t.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := t.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &graphNode{key: symbolKey(fn), fn: fn, decl: fd, target: t}
				g.nodes[n.key] = n
				g.order = append(g.order, n)
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].decl.Pos() < g.order[j].decl.Pos() })

	// Pass 2: edges and sources from each body (closures included —
	// ast.Inspect descends into function literals, attributing their
	// contents to the enclosing declaration).
	for _, n := range g.order {
		if n.decl.Body == nil {
			continue
		}
		g.scanBody(n)
	}

	// Pass 3: file-granular source scans, computed once per file and
	// attributed to the enclosing declaration by position.
	for _, t := range targets {
		for _, f := range t.Files {
			for _, fd := range findOrderDependentMapRanges(t.Info, f) {
				g.attachSource(taintSource{
					pos:  fd.pos,
					kind: "maprange",
					what: "order-dependent map iteration",
					fix:  "iterate sorted keys or make the body commutative",
				})
			}
			for _, pos := range findPointerFormats(t.Info, f) {
				g.attachSource(taintSource{
					pos:  pos,
					kind: "ptrformat",
					what: "%p pointer formatting (addresses differ between runs)",
					fix:  "print a stable identifier instead",
				})
			}
		}
	}
	for _, n := range g.order {
		sort.Slice(n.sources, func(i, j int) bool { return n.sources[i].pos < n.sources[j].pos })
	}
	return g
}

// attachSource appends s to the node whose declaration encloses s.pos,
// if any (package-level positions outside every function are dropped).
func (g *progGraph) attachSource(s taintSource) {
	i := sort.Search(len(g.order), func(i int) bool { return g.order[i].decl.Pos() > s.pos })
	if i == 0 {
		return
	}
	n := g.order[i-1]
	if s.pos < n.decl.End() {
		n.sources = append(n.sources, s)
	}
}

// symbolKey returns the package-qualified name of fn, identical
// whether fn was seen from source or from export data.
func symbolKey(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
		return t.String() + "." + fn.Name()
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// scanBody records n's outgoing edges and taint sources.
func (g *progGraph) scanBody(n *graphNode) {
	info := n.target.Info
	seenEdge := make(map[string]bool)
	addEdge := func(to *graphNode, via string) {
		k := via + " " + to.key
		if !seenEdge[k] {
			seenEdge[k] = true
			n.edges = append(n.edges, graphEdge{to: to, via: via})
		}
	}

	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.Ident:
			fn, ok := info.Uses[node].(*types.Func)
			if !ok || g.resolve(fn, addEdge) {
				return true
			}
			// External function without a body: a nondeterminism
			// source, or (conservatively) nothing.
			if s, ok := externalSource(fn, node.Pos()); ok {
				n.sources = append(n.sources, s)
			}
		case *ast.SelectStmt:
			ready := 0
			for _, c := range node.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					ready++
				}
			}
			if ready >= 2 {
				n.sources = append(n.sources, taintSource{
					pos:  node.Select,
					kind: "select",
					what: "select with multiple communication cases (the runtime picks a ready case pseudo-randomly)",
					fix:  "drain channels in a fixed order or restructure so at most one case can be ready",
				})
			}
		}
		return true
	})

}

// resolve calls visit with every node a reference to fn may reach:
// the declared function itself ("call"), or, for an interface method,
// every declared method with the same name and arity ("iface"). It
// reports false when fn is neither, i.e. a function outside the
// loaded packages.
func (g *progGraph) resolve(fn *types.Func, visit func(to *graphNode, via string)) bool {
	if target, ok := g.nodes[symbolKey(fn)]; ok {
		visit(target, "call")
		return true
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv == nil || !types.IsInterface(recv.Type()) {
		return false
	}
	for _, cand := range g.order {
		if cand.fn.Name() != fn.Name() || cand.fn.Type().(*types.Signature).Recv() == nil {
			continue
		}
		if sameArity(sig, cand.fn.Type().(*types.Signature)) {
			visit(cand, "iface")
		}
	}
	return true
}

// sameArity reports whether two signatures take and return the same
// number of values — the cross-universe stand-in for assignability.
func sameArity(a, b *types.Signature) bool {
	return a.Params().Len() == b.Params().Len() &&
		a.Results().Len() == b.Results().Len() &&
		a.Variadic() == b.Variadic()
}

// externalSource classifies a bodyless (non-target) function as a
// nondeterminism source.
func externalSource(fn *types.Func, pos token.Pos) (taintSource, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || fn.Pkg() == nil {
		return taintSource{}, false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	if recv := sig.Recv(); recv != nil {
		// The one sourced method family: directory enumeration on an
		// open os.File.
		if path == "os" && (name == "Readdir" || name == "Readdirnames" || name == "ReadDir") {
			return taintSource{pos, "fsorder",
				"filesystem enumeration (os.File)." + name + " reads host state",
				"simulation inputs must come from Config, not the host filesystem"}, true
		}
		return taintSource{}, false
	}
	switch path {
	case "time":
		if wallClockFuncs[name] {
			return taintSource{pos, "wallclock",
				"wall clock time." + name,
				"simulated time must come from the clock model"}, true
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			return taintSource{pos, "globalrand",
				"global math/rand." + name,
				"use a *rand.Rand seeded from Config"}, true
		}
	case "os":
		if name == "ReadDir" {
			return taintSource{pos, "fsorder",
				"filesystem enumeration os.ReadDir reads host state",
				"simulation inputs must come from Config, not the host filesystem"}, true
		}
	case "path/filepath":
		if name == "Walk" || name == "WalkDir" || name == "Glob" {
			return taintSource{pos, "fsorder",
				"filesystem enumeration filepath." + name + " reads host state",
				"simulation inputs must come from Config, not the host filesystem"}, true
		}
	}
	return taintSource{}, false
}

// reachableFrom runs a breadth-first traversal from the given roots
// (in order) and returns, for every reachable node, the edge through
// which it was first discovered. Roots map to a zero parentEdge.
// First-discovery order is deterministic because roots and adjacency
// lists are.
type parentEdge struct {
	from *graphNode
	via  string
}

func reachableFrom(roots []*graphNode) map[*graphNode]parentEdge {
	parent := make(map[*graphNode]parentEdge, len(roots))
	queue := make([]*graphNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := parent[r]; !ok {
			parent[r] = parentEdge{}
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.edges {
			if _, seen := parent[e.to]; !seen {
				parent[e.to] = parentEdge{from: n, via: e.via}
				queue = append(queue, e.to)
			}
		}
	}
	return parent
}

// pathTo renders the discovery path from a root to n, e.g.
// "mcd.Run -> mcd.sample -> [iface] stats.wallSampler.Sample".
func pathTo(parent map[*graphNode]parentEdge, n *graphNode) string {
	var hops []string
	for cur := n; ; {
		p, ok := parent[cur]
		if !ok {
			break
		}
		label := shortFn(cur.fn)
		if p.via == "iface" {
			label = "[iface] " + label
		}
		hops = append(hops, label)
		if p.from == nil {
			break
		}
		cur = p.from
	}
	// hops is leaf-to-root; reverse.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return strings.Join(hops, " -> ")
}

// shortFn renders fn compactly: the package path is trimmed to the
// part after the last "internal/", and methods carry their receiver.
func shortFn(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
		if i := strings.LastIndex(pkg, "internal/"); i >= 0 {
			pkg = pkg[i+len("internal/"):]
		}
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t, star = p.Elem(), "*"
		}
		name := t.String()
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		return fmt.Sprintf("%s.(%s%s).%s", pkg, star, name, fn.Name())
	}
	return pkg + "." + fn.Name()
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"mcddvfs/internal/lint/analysis"
	"mcddvfs/internal/lint/load"
)

// Unreachable reports every function or method in the loaded packages
// that no root of the program reaches over the call graph in graph.go.
// Because the graph over-approximates (any reference is an edge, an
// interface call reaches every method that a type implementing the
// interface by name and arity carries), the analyzer can miss dead
// code but never calls live code dead. Tests are not roots: a
// function only a _test.go file calls is reported, and belongs in that
// test file.
//
// The roots are:
//
//   - main and every init;
//   - the root package's exported functions and the exported methods
//     of its exported types (the library API);
//   - every function referenced from a package-level var initializer
//     (analyzer values, registries, dispatch tables);
//   - every method that implements an interface declared outside the
//     loaded packages, such as fmt.Stringer, error or
//     encoding.BinaryMarshaler, checked with types.Implements;
//   - every declaration waived with //lint:allow unreachable <reason>,
//     and so everything it reaches;
//   - every function referenced from a companion module: a Go module
//     in an immediate subdirectory of the main module (mcdbench here).
//     Companion modules contribute roots only; nothing is reported in
//     them.
//
// A load without a main package is a library slice, not a program:
// the analyzer stays silent on it, and its waivers go unaudited. Run
// it over the whole module (./...); a load that holds a main package
// but leaves out some of its callers' packages can see live code as
// dead.
var Unreachable = &analysis.Analyzer{
	Name:       "unreachable",
	Doc:        "reports functions that no command, init, root-package API, package var, external interface or companion module reaches",
	RunProgram: runUnreachable,
}

func runUnreachable(pass *analysis.ProgramPass) error {
	var mainPkg *analysis.Target
	for _, t := range pass.Targets {
		if t.Pkg.Name() == "main" {
			mainPkg = t
			break
		}
	}
	if mainPkg == nil {
		return analysis.ErrNotApplicable
	}
	g := buildGraph(pass.Targets, pass.Fset, true)

	var roots []*graphNode
	addRoot := func(n *graphNode, _ string) { roots = append(roots, n) }
	for _, n := range g.order {
		if isEntryPoint(n, mainPkg.ModulePath) {
			roots = append(roots, n)
		}
	}
	for _, t := range pass.Targets {
		varInitRefs(g, t, addRoot)
	}
	externalImpls(g, pass.Targets, addRoot)
	if err := companionRefs(g, mainPkg.ModuleDir, addRoot); err != nil {
		return err
	}

	waived := waivedNodes(g, pass.Targets)
	live := reachableFrom(roots)
	liveOrWaived := reachableFrom(append(roots, waived...))
	isWaived := make(map[*graphNode]bool, len(waived))
	for _, n := range waived {
		isWaived[n] = true
	}
	for _, n := range g.order {
		if _, ok := live[n]; ok {
			continue
		}
		// A waived declaration's own finding is reported (and silenced
		// by its directive); what it reaches is not.
		if _, ok := liveOrWaived[n]; ok && !isWaived[n] {
			continue
		}
		pass.Reportf(n.decl.Pos(),
			"%s is unreachable: no main, init, root-package API, package var, external interface or companion module reaches it; delete it, move it into a _test.go file if only tests use it, or waive it with //lint:allow unreachable <reason>",
			shortFn(n.fn))
	}
	return nil
}

// isEntryPoint reports whether n is main, an init, or part of the root
// package's exported API.
func isEntryPoint(n *graphNode, modulePath string) bool {
	recv := n.decl.Recv
	name := n.fn.Name()
	if recv == nil && (name == "init" || name == "main" && n.fn.Pkg().Name() == "main") {
		return true
	}
	if n.fn.Pkg().Path() != modulePath || !n.fn.Exported() {
		return false
	}
	if recv == nil {
		return true
	}
	t := n.fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

// varInitRefs visits every function referenced from a package-level
// var initializer in t, closures included.
func varInitRefs(g *progGraph, t *analysis.Target, visit func(*graphNode, string)) {
	for _, f := range t.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			ast.Inspect(gd, func(node ast.Node) bool {
				if id, ok := node.(*ast.Ident); ok {
					if fn, ok := t.Info.Uses[id].(*types.Func); ok {
						g.resolve(fn, visit)
					}
				}
				return true
			})
		}
	}
}

// errorsProtocol are the anonymous interfaces through which errors.Is,
// errors.As and errors.Unwrap call an error's methods.
var errorsProtocol = []string{
	"interface{ Unwrap() error }",
	"interface{ Unwrap() []error }",
	"interface{ Is(error) bool }",
	"interface{ As(any) bool }",
}

// externalImpls visits every method of a named type in the targets
// that implements part of an interface declared outside them: the
// universe's error and every exported interface of a package a target
// imports, plus the errors package's anonymous protocol. Those methods
// are called from code the graph cannot see (fmt calling String,
// encoding/json calling MarshalJSON, errors.Is calling Unwrap).
func externalImpls(g *progGraph, targets []*analysis.Target, visit func(*graphNode, string)) {
	loaded := make(map[string]bool, len(targets))
	for _, t := range targets {
		loaded[t.Pkg.Path()] = true
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, expr := range errorsProtocol {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, expr)
		if err != nil {
			panic(err)
		}
		ifaces = append(ifaces, tv.Type.Underlying().(*types.Interface))
	}
	seen := make(map[*types.Package]bool)
	for _, t := range targets {
		for _, imp := range t.Pkg.Imports() {
			if loaded[imp.Path()] || seen[imp] {
				continue
			}
			seen[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || tn.IsAlias() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, named := range g.named {
		if named.TypeParams().Len() > 0 {
			continue
		}
		for _, it := range ifaces {
			if !types.Implements(types.NewPointer(named), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if fn := methodOf(named, it.Method(i).Name()); fn != nil {
					if n, ok := g.nodes[symbolKey(fn)]; ok {
						visit(n, "iface")
					}
				}
			}
		}
	}
}

// companionRefs loads every companion module (a go.mod in an immediate
// subdirectory of moduleDir) and visits each function it references.
func companionRefs(g *progGraph, moduleDir string, visit func(*graphNode, string)) error {
	if moduleDir == "" {
		return nil
	}
	entries, err := os.ReadDir(moduleDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		dir := filepath.Join(moduleDir, e.Name())
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue
		}
		pkgs, err := load.Load(dir, "./...")
		if err != nil {
			return err
		}
		for _, p := range pkgs {
			for _, obj := range p.Info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					g.resolve(fn, visit)
				}
			}
		}
	}
	return nil
}

// waivedNodes returns the declarations carrying a
// //lint:allow unreachable directive with a reason, on the line of
// the func keyword or the line above it.
func waivedNodes(g *progGraph, targets []*analysis.Target) []*graphNode {
	type fileLine struct {
		file string
		line int
	}
	byLine := make(map[fileLine]*graphNode, len(g.order))
	for _, n := range g.order {
		p := g.fset.Position(n.decl.Pos())
		byLine[fileLine{p.Filename, p.Line}] = n
	}
	var out []*graphNode
	for _, t := range targets {
		for _, f := range t.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lint:allow unreachable ")
					if !ok || strings.TrimSpace(rest) == "" {
						continue
					}
					p := g.fset.Position(c.Pos())
					for _, line := range []int{p.Line, p.Line + 1} {
						if n, ok := byLine[fileLine{p.Filename, line}]; ok {
							out = append(out, n)
							break
						}
					}
				}
			}
		}
	}
	return out
}

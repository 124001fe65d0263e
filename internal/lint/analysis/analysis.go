// Package analysis is a deliberately small, dependency-free subset of
// golang.org/x/tools/go/analysis: just enough structure (Analyzer,
// Pass, Diagnostic) to host the mcdlint analyzers without pulling a
// module dependency into a standard-library-only repository.
//
// The driver adds one repo-specific feature the upstream framework
// leaves to each checker: a uniform escape hatch. A comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line, or on the line directly above it,
// suppresses that analyzer's diagnostics for that line. The reason is
// mandatory — an allow directive without one is itself reported, so
// every suppression in the tree documents why the invariant does not
// apply.
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker. An analyzer is either
// per-package (Run) or whole-program (RunProgram); the interprocedural
// checkers use the latter because a taint path or a field-coverage
// proof crosses package boundaries.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. It must be a single lower-case word.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package and reports violations via the pass.
	// Nil for whole-program analyzers.
	Run func(*Pass) error
	// RunProgram inspects every target package at once. The driver
	// invokes it exactly once per Run call, after the per-package
	// passes. Nil for per-package analyzers.
	RunProgram func(*ProgramPass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's findings for Files.
	Info *types.Info

	report func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ProgramPass carries every type-checked target package through one
// whole-program analyzer. All targets share a single token.FileSet
// (the loader guarantees it).
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Targets  []*Target

	report func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ErrNotApplicable is what a whole-program analyzer returns when it
// does not apply to the loaded packages, such as a reachability check
// given a library slice with no main package. The driver then leaves
// that analyzer's //lint:allow directives unaudited instead of
// reporting them as suppressing nothing.
var ErrNotApplicable = errors.New("analysis: analyzer does not apply to these packages")

// Diagnostic is one reported violation. A diagnostic silenced by a
// //lint:allow directive is still returned — with Suppressed set and
// the directive's reason attached — so machine consumers (mcdlint
// -json) can surface waived findings next to active ones; only
// unsuppressed diagnostics affect mcdlint's exit status.
type Diagnostic struct {
	Pos         token.Pos
	Analyzer    string
	Message     string
	Suppressed  bool
	AllowReason string
}

// Active filters diags down to the unsuppressed ones.
func Active(diags []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Target is the loader-agnostic view of one package the driver needs.
// internal/lint/load.Package satisfies it.
type Target struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// ModulePath and ModuleDir name the package's module; empty when
	// the loader ran outside module mode.
	ModulePath string
	ModuleDir  string
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	line     int
	file     string
	pos      token.Pos
	used     bool
}

const allowPrefix = "//lint:allow"

// parseAllows extracts every //lint:allow directive from a file.
func parseAllows(fset *token.FileSet, f *ast.File) []*allowDirective {
	var out []*allowDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
			name, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			out = append(out, &allowDirective{
				analyzer: name,
				reason:   strings.TrimSpace(reason),
				line:     pos.Line,
				file:     pos.Filename,
				pos:      c.Pos(),
			})
		}
	}
	return out
}

// Run applies every analyzer to every target package and returns the
// diagnostics sorted by position. Diagnostics silenced by a
// //lint:allow directive are returned with Suppressed set (see
// Diagnostic); malformed or unused //lint:allow directives are
// reported as diagnostics of the pseudo-analyzer "lintdirective" so
// stale escape hatches cannot linger silently.
func Run(targets []*Target, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var allows []*allowDirective
	for _, t := range targets {
		for _, f := range t.Files {
			allows = append(allows, parseAllows(t.Fset, f)...)
		}
	}
	fsetFor := func() *token.FileSet {
		if len(targets) > 0 {
			return targets[0].Fset
		}
		return token.NewFileSet()
	}
	report := func(d Diagnostic, fset *token.FileSet) {
		p := fset.Position(d.Pos)
		for _, a := range allows {
			if a.analyzer != d.Analyzer || a.file != p.Filename || a.reason == "" {
				continue
			}
			if a.line == p.Line || a.line == p.Line-1 {
				a.used = true
				d.Suppressed = true
				d.AllowReason = a.reason
				break
			}
		}
		diags = append(diags, d)
	}

	for _, t := range targets {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     t.Fset,
				Files:    t.Files,
				Pkg:      t.Pkg,
				Info:     t.Info,
			}
			fset := t.Fset
			pass.report = func(d Diagnostic) { report(d, fset) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, t.Pkg.Path(), err)
			}
		}
	}

	notApplicable := make(map[string]bool)
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		pass := &ProgramPass{
			Analyzer: a,
			Fset:     fsetFor(),
			Targets:  targets,
		}
		pass.report = func(d Diagnostic) { report(d, pass.Fset) }
		if err := a.RunProgram(pass); errors.Is(err, ErrNotApplicable) {
			notApplicable[a.Name] = true
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, a := range allows {
		switch {
		case a.reason == "":
			diags = append(diags, Diagnostic{Pos: a.pos, Analyzer: "lintdirective",
				Message: fmt.Sprintf("//lint:allow %s is missing a reason", a.analyzer)})
		case !known[a.analyzer]:
			diags = append(diags, Diagnostic{Pos: a.pos, Analyzer: "lintdirective",
				Message: fmt.Sprintf("//lint:allow names unknown analyzer %q", a.analyzer)})
		case !a.used && !notApplicable[a.analyzer]:
			diags = append(diags, Diagnostic{Pos: a.pos, Analyzer: "lintdirective",
				Message: fmt.Sprintf("//lint:allow %s suppresses nothing; remove it", a.analyzer)})
		}
	}

	// All targets share one FileSet (the loader guarantees it), so
	// sorting by file/line/column across packages is well-defined.
	if len(targets) > 0 {
		fset := targets[0].Fset
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			if pi.Column != pj.Column {
				return pi.Column < pj.Column
			}
			return diags[i].Analyzer < diags[j].Analyzer
		})
	}
	return diags, nil
}

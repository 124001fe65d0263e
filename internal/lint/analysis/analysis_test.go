package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// flagLoops reports every for statement — a minimal analyzer for
// exercising the driver and the //lint:allow machinery.
var flagLoops = &Analyzer{
	Name: "flagloops",
	Doc:  "flags every for statement",
	Run: func(p *Pass) error {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if fs, ok := n.(*ast.ForStmt); ok {
					p.Reportf(fs.For, "loop found")
				}
				return true
			})
		}
		return nil
	},
}

// check type-checks src (a dependency-free file) and runs analyzers.
func check(t *testing.T, src string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Target{{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func messages(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Analyzer + ": " + d.Message
	}
	return out
}

func TestReportAndSort(t *testing.T) {
	diags := check(t, `package p
func b() {
	for {
	}
}
func a() {
	for {
	}
}
`, flagLoops)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), messages(diags))
	}
	if diags[0].Pos >= diags[1].Pos {
		t.Errorf("diagnostics not sorted by position")
	}
}

func TestAllowSameLine(t *testing.T) {
	diags := check(t, `package p
func f() {
	for { //lint:allow flagloops benchmark loop is intentionally unbounded
	}
}
`, flagLoops)
	if len(Active(diags)) != 0 {
		t.Fatalf("same-line allow did not suppress: %v", messages(Active(diags)))
	}
	// The waived finding is still on the record, reason attached.
	if len(diags) != 1 || !diags[0].Suppressed ||
		diags[0].AllowReason != "benchmark loop is intentionally unbounded" {
		t.Fatalf("suppressed diagnostic not recorded with its reason: %+v", diags)
	}
}

func TestAllowLineAbove(t *testing.T) {
	diags := check(t, `package p
func f() {
	//lint:allow flagloops benchmark loop is intentionally unbounded
	for {
	}
}
`, flagLoops)
	if len(Active(diags)) != 0 {
		t.Fatalf("line-above allow did not suppress: %v", messages(Active(diags)))
	}
}

func TestAllowWrongAnalyzerDoesNotSuppress(t *testing.T) {
	diags := check(t, `package p
func f() {
	//lint:allow flagloops the loop below is fine
	for {
	}
	for {
	}
}
`, flagLoops)
	if got := Active(diags); len(got) != 1 {
		t.Fatalf("got %d active diagnostics, want 1 (second loop unsuppressed): %v", len(got), messages(got))
	}
}

// progCalls counts functions per package across the whole program — a
// minimal whole-program analyzer exercising the ProgramPass plumbing
// and its interaction with //lint:allow.
var flagFuncs = &Analyzer{
	Name: "flagfuncs",
	Doc:  "flags every function declaration, program-wide",
	RunProgram: func(p *ProgramPass) error {
		for _, t := range p.Targets {
			for _, f := range t.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						p.Reportf(fd.Pos(), "function %s", fd.Name.Name)
					}
				}
			}
		}
		return nil
	},
}

func TestProgramPass(t *testing.T) {
	diags := check(t, `package p
func a() {}

//lint:allow flagfuncs demonstrates program-pass suppression
func b() {}
`, flagFuncs)
	active := Active(diags)
	if len(active) != 1 || !strings.Contains(active[0].Message, "function a") {
		t.Fatalf("want one active diagnostic for a, got: %v", messages(active))
	}
	if len(diags) != 2 {
		t.Fatalf("want the waived b finding recorded as suppressed, got: %v", messages(diags))
	}
}

func TestAllowMissingReason(t *testing.T) {
	diags := check(t, `package p
func f() {
	//lint:allow flagloops
	for {
	}
}
`, flagLoops)
	// The reasonless directive suppresses nothing, so both the loop
	// diagnostic and the directive complaint surface.
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), messages(diags))
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "lintdirective" && strings.Contains(d.Message, "missing a reason") {
			found = true
		}
	}
	if !found {
		t.Errorf("no lintdirective diagnostic for missing reason: %v", messages(diags))
	}
}

func TestAllowUnknownAnalyzer(t *testing.T) {
	diags := check(t, `package p
//lint:allow nosuchcheck spelled wrong
func f() {}
`, flagLoops)
	if len(diags) != 1 || diags[0].Analyzer != "lintdirective" ||
		!strings.Contains(diags[0].Message, "unknown analyzer") {
		t.Fatalf("want one unknown-analyzer diagnostic, got: %v", messages(diags))
	}
}

// TestAllowNotApplicable: an analyzer that does not apply to the load
// leaves its directives unaudited rather than stale.
func TestAllowNotApplicable(t *testing.T) {
	skip := &Analyzer{
		Name:       "needsmain",
		Doc:        "applies only to programs",
		RunProgram: func(*ProgramPass) error { return ErrNotApplicable },
	}
	diags := check(t, `package p
//lint:allow needsmain kept for a program this load does not hold
func f() {}
`, skip)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got: %v", messages(diags))
	}
}

func TestAllowUnused(t *testing.T) {
	diags := check(t, `package p
//lint:allow flagloops nothing here loops
func f() {}
`, flagLoops)
	if len(diags) != 1 || diags[0].Analyzer != "lintdirective" ||
		!strings.Contains(diags[0].Message, "suppresses nothing") {
		t.Fatalf("want one stale-directive diagnostic, got: %v", messages(diags))
	}
}

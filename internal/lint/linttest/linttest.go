// Package linttest is a miniature analysistest: it runs the mcdlint
// suite over a fixture module under internal/lint/testdata and
// compares the diagnostics against expectations embedded in the
// fixture sources.
//
// An expectation is a trailing comment of the form
//
//	// want <analyzer> `regexp`
//
// on the line where the diagnostic is reported. Multiple backquoted
// patterns may follow one tag. Run fails the test on any unexpected
// diagnostic, any unmatched expectation, and — to guarantee the suite
// demonstrably catches violations — when the analyzer under test
// matched no expectation at all.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"mcddvfs/internal/lint"
	"mcddvfs/internal/lint/analysis"
	"mcddvfs/internal/lint/load"
)

// want is one expectation parsed from a fixture source line.
type want struct {
	file     string
	line     int
	analyzer string
	re       *regexp.Regexp
	matched  bool
}

// diag is one reported diagnostic in file/line form.
type diag struct {
	file     string
	line     int
	analyzer string
	message  string
}

// fixture is one module's suite run, shared by every Run call on it.
type fixture struct {
	err   error
	wants []*want
	diags []diag
}

var fixtures struct {
	mu    sync.Mutex
	byDir map[string]*fixture
}

var wantRE = regexp.MustCompile("// want ([a-z]+)((?: `[^`]+`)+)")
var patRE = regexp.MustCompile("`([^`]+)`")

// loadFixture runs the full suite over dir once per test binary.
func loadFixture(dir string) *fixture {
	fixtures.mu.Lock()
	defer fixtures.mu.Unlock()
	if f, ok := fixtures.byDir[dir]; ok {
		return f
	}
	if fixtures.byDir == nil {
		fixtures.byDir = make(map[string]*fixture)
	}
	f := new(fixture)
	f.err = f.runSuite(dir)
	fixtures.byDir[dir] = f
	return f
}

func (fx *fixture) runSuite(dir string) error {
	pkgs, err := load.Load(dir, "./...")
	if err != nil {
		return fmt.Errorf("loading fixture module: %w", err)
	}
	ds, err := analysis.Run(lint.Targets(pkgs), lint.Analyzers())
	if err != nil {
		return fmt.Errorf("running suite: %w", err)
	}
	if len(pkgs) == 0 {
		return fmt.Errorf("fixture module %s matched no packages", dir)
	}
	fset := pkgs[0].Fset
	for _, d := range analysis.Active(ds) {
		pos := fset.Position(d.Pos)
		fx.diags = append(fx.diags, diag{
			file:     pos.Filename,
			line:     pos.Line,
			analyzer: d.Analyzer,
			message:  d.Message,
		})
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := fset.Position(f.Pos()).Filename
			if err := fx.parseWants(name); err != nil {
				return err
			}
		}
	}
	return nil
}

func (fx *fixture) parseWants(filename string) error {
	src, err := os.ReadFile(filename)
	if err != nil {
		return err
	}
	for i, line := range strings.Split(string(src), "\n") {
		// A line may carry several want tags (one per analyzer expected
		// to fire there), each with several backquoted patterns.
		for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
			for _, pm := range patRE.FindAllStringSubmatch(m[2], -1) {
				re, err := regexp.Compile(pm[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want pattern %q: %w", filename, i+1, pm[1], err)
				}
				fx.wants = append(fx.wants, &want{
					file:     filename,
					line:     i + 1,
					analyzer: m[1],
					re:       re,
				})
			}
		}
	}
	return nil
}

// Run checks one analyzer's diagnostics against the fixture module at
// dir (each module is evaluated once and shared across all Run calls
// in a binary).
//
//lint:allow unreachable test harness the lint packages' tests share; only _test.go files call it
func Run(t *testing.T, dir string, analyzer string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	fx := loadFixture(abs)
	if fx.err != nil {
		t.Fatal(fx.err)
	}

	matched := 0
	for _, d := range fx.diags {
		if d.analyzer != analyzer {
			continue
		}
		ok := false
		for _, w := range fx.wants {
			if w.analyzer == analyzer && w.file == d.file && w.line == d.line && w.re.MatchString(d.message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", rel(d.file), d.line, d.analyzer, d.message)
			continue
		}
		matched++
	}
	for _, w := range fx.wants {
		if w.analyzer == analyzer && !w.matched {
			t.Errorf("%s:%d: expected %s diagnostic matching %q, got none", rel(w.file), w.line, analyzer, w.re)
		}
	}
	if matched == 0 && !t.Failed() {
		t.Errorf("fixture demonstrates no %s violation; the analyzer is untested", analyzer)
	}
}

func rel(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if r, err := filepath.Rel(wd, path); err == nil {
		return r
	}
	return path
}

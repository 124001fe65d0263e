// Package load type-checks Go packages for the mcdlint analyzers using
// only the standard library and the go tool.
//
// golang.org/x/tools/go/packages is the usual answer here, but this
// repository is standard-library-only, so the loader reimplements the
// narrow slice it needs: `go list -export -json -deps` supplies package
// metadata plus compiled export data for every dependency (including
// the standard library, whose export data no longer ships pre-built),
// the target packages are parsed from source, and go/types checks them
// against the export data through go/importer's gc lookup hook.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed, type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	// ModulePath and ModuleDir name the module the package belongs to
	// (empty outside module mode).
	ModulePath string
	ModuleDir  string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
	Module     *struct{ Path, Dir string }
}

// Load resolves patterns (e.g. "./...") relative to dir, compiles their
// dependency graph for export data, and returns the matched packages
// parsed and type-checked from source. All returned packages share one
// token.FileSet.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(metas))
	var targets []*listPackage
	for _, m := range metas {
		if m.Export != "" {
			exports[m.ImportPath] = m.Export
		}
		if !m.DepOnly {
			targets = append(targets, m)
		}
	}

	fset := token.NewFileSet()
	// One importer instance for every target: it memoizes dependency
	// packages, so shared deps are read once.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var out []*Package
	for _, t := range targets {
		p, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// goList runs `go list -export -json -deps` and decodes the stream.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listPackage
	for {
		m := new(listPackage)
		if err := dec.Decode(m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if m.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", m.ImportPath, m.Error.Err)
		}
		out = append(out, m)
	}
	return out, nil
}

// check parses and type-checks one target package from source.
func check(fset *token.FileSet, imp types.Importer, meta *listPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(meta.GoFiles))
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(meta.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", meta.ImportPath, err)
	}
	p := &Package{
		ImportPath: meta.ImportPath,
		Dir:        meta.Dir,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}
	if meta.Module != nil {
		p.ModulePath, p.ModuleDir = meta.Module.Path, meta.Module.Dir
	}
	return p, nil
}

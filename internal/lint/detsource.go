package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"mcddvfs/internal/lint/analysis"
)

// DetSource forbids nondeterminism *sources* in the simulator
// packages. Simulated time advances from the clock model and every
// random stream is seeded from Config (the contract stated at the top
// of internal/mcd/processor.go), so:
//
//   - time.Now / time.Since / time.Until are banned — wall-clock
//     readings differ between runs;
//   - package-level math/rand functions (rand.Intn, rand.Float64,
//     rand.Seed, ...) are banned — the global source is shared,
//     lock-contended, and unseeded by config. Constructing an owned
//     generator (rand.New, rand.NewSource, rand.NewZipf, ...) stays
//     legal: a *rand.Rand seeded from Config is the sanctioned idiom;
//   - %p in format strings is banned — addresses change with every
//     process and ASLR makes them useless even as stable labels.
//
// In the wider fsListPackages scope (the trace package and experiment
// harness on top of the simulator), filesystem enumeration —
// os.ReadDir, filepath.Walk/WalkDir/Glob, and the (os.File)
// Readdir/Readdirnames/ReadDir methods — is banned too: listing order
// is host state, and both packages feed the bit-identical-output
// contract. Nothing in them lists a directory today; code that
// genuinely needs a listing sorts it in a helper outside the scope,
// whose listing carries an audited dettaint waiver.
var DetSource = &analysis.Analyzer{
	Name: "detsource",
	Doc:  "forbids wall-clock, global-rand, pointer-formatting, and filesystem-enumeration nondeterminism sources in simulator packages",
	Run:  runDetSource,
}

// wallClockFuncs are the banned time-package readings.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the math/rand (v1 and v2) package functions
// that build an owned generator rather than using the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// fsEnumMethods are the directory-enumeration methods on os.File; the
// one method family detsource bans (all other method calls are fine).
var fsEnumMethods = map[string]bool{"Readdir": true, "Readdirnames": true, "ReadDir": true}

// fsEnumFix is the remediation every filesystem-enumeration diagnostic
// points at.
const fsEnumFix = "depends on host directory order; list through a helper that sorts the names, with an audited //lint:allow dettaint waiver on its listing"

func runDetSource(pass *analysis.Pass) error {
	sim := inScope(pass.Pkg.Path(), simPackages)
	fsScope := inScope(pass.Pkg.Path(), fsListPackages)
	if !sim && !fsScope {
		return nil
	}

	// Identifier uses: wall clock and global rand. Info.Uses is a map,
	// so collect first and let the driver's position sort keep the
	// final diagnostics deterministic.
	type use struct {
		id  *ast.Ident
		msg string
	}
	var uses []use
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		if sig.Recv() != nil {
			// Methods (e.g. (*rand.Rand).Float64) are fine — except the
			// directory-enumeration family on an open os.File.
			if fsScope && fn.Pkg().Path() == "os" && fsEnumMethods[fn.Name()] {
				uses = append(uses, use{id, "filesystem enumeration (os.File)." + fn.Name() + " " + fsEnumFix})
			}
			continue
		}
		if sim {
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					uses = append(uses, use{id, "wall clock time." + fn.Name() + " in a simulator package; simulated time must come from the clock model"})
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					uses = append(uses, use{id, "global math/rand." + fn.Name() + " in a simulator package; use a *rand.Rand seeded from Config"})
				}
			}
		}
		if fsScope {
			switch fn.Pkg().Path() {
			case "os":
				if fn.Name() == "ReadDir" {
					uses = append(uses, use{id, "filesystem enumeration os.ReadDir " + fsEnumFix})
				}
			case "path/filepath":
				if fn.Name() == "Walk" || fn.Name() == "WalkDir" || fn.Name() == "Glob" {
					uses = append(uses, use{id, "filesystem enumeration filepath." + fn.Name() + " " + fsEnumFix})
				}
			}
		}
	}
	sort.Slice(uses, func(i, j int) bool { return uses[i].id.Pos() < uses[j].id.Pos() })
	for _, u := range uses {
		pass.Reportf(u.id.Pos(), "%s", u.msg)
	}

	// Format strings: %p leaks addresses into output. Simulator scope
	// only — the wider fs scope cares about listings, not labels.
	if sim {
		for _, f := range pass.Files {
			for _, pos := range findPointerFormats(pass.Info, f) {
				pass.Reportf(pos, "%%p formats a memory address, which differs between runs; print a stable identifier instead")
			}
		}
	}
	return nil
}

// findPointerFormats returns the position of every constant fmt format
// string containing %p in f. Shared by detsource (which bans them in
// the simulator packages directly) and the dettaint call-graph engine
// (which treats them as taint sources everywhere else).
func findPointerFormats(info *types.Info, f *ast.File) []token.Pos {
	var out []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				continue
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				continue
			}
			if strings.Contains(s, "%p") || strings.Contains(s, "%#p") {
				out = append(out, lit.Pos())
			}
		}
		return true
	})
	return out
}

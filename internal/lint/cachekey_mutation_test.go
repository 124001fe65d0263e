package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcddvfs/internal/lint/analysis"
	"mcddvfs/internal/lint/load"
)

// TestCacheKeyCatchesDroppedHashField proves the cachekey analyzer
// guards the real cache keys, not just the fixtures: it type-checks a
// copy of the repo with a field-write deleted from a key hash struct
// and requires the analyzer to fail on it. The unmutated copy is
// checked clean first, so the diagnostic is attributable to the
// deletion alone.
//
// Coverage is reachability-based, so a field mentioned on any path
// from cacheKey stays covered. Every key takes Instructions and
// GovernorGain from the one keyTail literal that keyParts (reached
// from cacheKey) encodes, and from nowhere else, so deleting either
// line removes the field from every key and must fail; the bytes the
// literal hashes are the byte-stability tests' job (TestCacheKeyGolden
// and TestChipCacheKeyGolden). Seed would survive the same deletion
// legitimately (the key hashes the machine config, which machine()
// derives from the seed) — exactly the transitive coverage the call
// graph exists to see.
func TestCacheKeyCatchesDroppedHashField(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and re-type-checks the module")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not at %s: %v", root, err)
	}

	cases := []struct {
		name      string
		drops     map[string]string // file under the repo root -> literal line to delete (exactly one occurrence)
		wantField string
	}{
		{
			name: "instructions-from-every-key",
			drops: map[string]string{
				"internal/experiment/cache.go": "Instructions:     opt.Instructions,",
			},
			wantField: "Options.Instructions",
		},
		{
			name: "governor-gain-from-every-key",
			drops: map[string]string{
				"internal/experiment/cache.go": "GovernorGain:     opt.GovernorGain,",
			},
			wantField: "Options.GovernorGain",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := t.TempDir()
			copyModule(t, root, dst)

			if ds := cachekeyDiags(t, dst); len(ds) != 0 {
				t.Fatalf("unmutated copy is not clean: %v", ds)
			}
			for rel, dropped := range tc.drops {
				path := filepath.Join(dst, filepath.FromSlash(rel))
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if n := strings.Count(string(src), dropped); n != 1 {
					t.Fatalf("%s contains %q %d times, want once; update this test alongside the key structs", path, dropped, n)
				}
				mutated := strings.ReplaceAll(string(src), dropped, "")
				if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			ds := cachekeyDiags(t, dst)
			if len(ds) != 1 || !strings.Contains(ds[0], tc.wantField) {
				t.Fatalf("dropping %v: got diagnostics %v, want exactly one naming %s", tc.drops, ds, tc.wantField)
			}
		})
	}
}

// cachekeyDiags runs the full suite over dir's internal packages and
// returns the active cachekey diagnostics as strings. The full suite
// (not just CacheKey) runs so //lint:allow directive validation sees
// every analyzer name the tree references.
func cachekeyDiags(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := load.Load(dir, "./internal/...")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	ds, err := analysis.Run(Targets(pkgs), Analyzers())
	if err != nil {
		t.Fatalf("running suite over %s: %v", dir, err)
	}
	fset := pkgs[0].Fset
	var out []string
	for _, d := range analysis.Active(ds) {
		if d.Analyzer != "cachekey" {
			continue
		}
		pos := fset.Position(d.Pos)
		out = append(out, filepath.Base(pos.Filename)+": "+d.Message)
	}
	return out
}

// copyModule copies go.mod and every non-test Go source file under
// internal/ (skipping the lint fixture module under testdata) from
// root into dst, preserving layout.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	copyFile(t, filepath.Join(root, "go.mod"), filepath.Join(dst, "go.mod"))
	src := filepath.Join(root, "internal")
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		copyFile(t, path, filepath.Join(dst, rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcddvfs/internal/experiment"
)

// TestOnlyRejectsUnknownID: an -only naming an ID the catalog does not
// have is a usage error — exit 2 before anything renders, with the
// catalog listed.
func TestOnlyRejectsUnknownID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "table1,fig99", "-cache-dir", ""}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("rendered before rejecting the selection:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `"fig99"`) {
		t.Errorf("stderr does not name the unknown ID:\n%s", stderr.String())
	}
	for _, a := range experiment.Artifacts() {
		if !strings.Contains(stderr.String(), " "+a.ID) {
			t.Errorf("stderr does not list catalog ID %q:\n%s", a.ID, stderr.String())
		}
	}
}

// TestOutputIsCatalogRender: every byte the command writes to stdout
// and -out is RenderArtifactContext's, and a selection renders in
// catalog order whatever order -only names it in. fig9's .txt file is
// also streamed row by row while its matrix runs; the file must end up
// as the catalog's bytes all the same.
func TestOutputIsCatalogRender(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-only", "fig9,table4,table1", "-insts", "5000", "-bench", "gzip", "-schemes", "adaptive",
		"-cache-dir", "", "-out", dir, "-json", "-svg"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	// A harness of its own, so no expected render is a memo hit on one
	// the command made.
	opt := experiment.Options{Instructions: 5000, Seed: 1, Benchmarks: []string{"gzip"},
		Schemes: []experiment.Scheme{experiment.SchemeAdaptive}, Harness: experiment.NewHarness()}
	render := func(id string, format experiment.ArtifactFormat) []byte {
		t.Helper()
		body, _, err := experiment.RenderArtifactContext(context.Background(), id, format, opt)
		if err != nil {
			t.Fatalf("%s.%s: %v", id, format, err)
		}
		return body
	}
	var want []byte
	for _, id := range []string{"table1", "table4", "fig9"} {
		txt := render(id, experiment.FormatText)
		want = append(want, txt...)
		files := map[string][]byte{id + ".txt": txt, id + ".json": render(id, experiment.FormatJSON)}
		if id == "fig9" {
			files[id+".svg"] = render(id, experiment.FormatSVG)
		}
		for name, body := range files {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, body) {
				t.Errorf("%s differs from the catalog render:\n%s\nwant:\n%s", name, got, body)
			}
		}
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout differs from the catalog renders in catalog order:\n%s\nwant:\n%s", stdout.String(), want)
	}
	if _, err := os.Stat(filepath.Join(dir, "table4.svg")); err == nil {
		t.Error("wrote an SVG for an artifact that is not a figure")
	}
	// Only the first matrix streams: fig9's json and svg renders read
	// it again from the memo, and must not reopen the .txt file.
	if n := strings.Count(stderr.String(), " cells in "); n != 1 {
		t.Errorf("%d matrix summaries on stderr, want 1:\n%s", n, stderr.String())
	}
}

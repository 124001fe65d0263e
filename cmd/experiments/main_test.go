package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// rowSnapshots is a stderr that, at each matrix progress line, reads
// the streamed figure files: the command rewrites them before the
// row's line goes out.
type rowSnapshots struct {
	dir  string
	ids  []string
	log  bytes.Buffer
	rows []map[string][]byte
}

func (w *rowSnapshots) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("experiments: matrix row ")) {
		snap := map[string][]byte{}
		for _, id := range w.ids {
			snap[id], _ = os.ReadFile(filepath.Join(w.dir, id+".txt"))
		}
		w.rows = append(w.rows, snap)
	}
	return w.log.Write(p)
}

// TestStreamedFiguresAreBatchRenders: while the matrix runs, the fig9
// and fig10 .txt files hold, after each row, the catalog render over
// the benchmarks delivered so far, and after the last row the final
// artifact. One run lists its schemes out of registry order; in the
// other a cell fails, so the figures carry the omitted-rows note.
func TestStreamedFiguresAreBatchRenders(t *testing.T) {
	ids := []string{"fig9", "fig10"}
	schemes := []experiment.Scheme{experiment.SchemeAttackDecay, experiment.SchemeAdaptive}
	for _, tc := range []struct {
		name    string
		benches []string
		seed    int64
		timeout time.Duration
		harness *experiment.Harness // for the expected renders
		omitted string              // in the final figures, if a cell fails
	}{
		{name: "schemes out of registry order", benches: []string{"adpcm_encode", "gzip", "swim"}, seed: 1,
			harness: experiment.NewHarness()},
		// The command renders on the default harness. gzip's cells are
		// memoized there first, so they are served before the deadline
		// applies; swim's cells, at a seed no other test runs, each
		// outlive a nanosecond deadline.
		{name: "failed cells", benches: []string{"gzip", "swim"}, seed: 2, timeout: time.Nanosecond,
			omitted: "1 benchmark(s) omitted, cells failed or cancelled: swim (none, "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := experiment.Options{Instructions: 5000, Seed: tc.seed, Schemes: schemes, Timeout: tc.timeout, Harness: tc.harness}
			render := func(id string, benches []string) []byte {
				t.Helper()
				o := opt
				o.Benchmarks = benches
				body, _, err := experiment.RenderArtifactContext(context.Background(), id, experiment.FormatText, o)
				if err != nil {
					t.Fatalf("%s over %v: %v", id, benches, err)
				}
				return body
			}
			if tc.omitted != "" {
				warm := opt
				warm.Benchmarks, warm.Timeout = tc.benches[:1], 0
				if _, _, err := experiment.RenderArtifactContext(context.Background(), "fig9", experiment.FormatText, warm); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			stderr := &rowSnapshots{dir: dir, ids: ids}
			args := []string{"-only", "fig10,fig9", "-insts", "5000", "-seed", fmt.Sprint(tc.seed), "-bench", strings.Join(tc.benches, ","),
				"-schemes", "attack-decay,adaptive", "-timeout", tc.timeout.String(), "-cache-dir", "", "-out", dir}
			var stdout bytes.Buffer
			if code := run(args, &stdout, stderr); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr.log.String())
			}
			if len(stderr.rows) != len(tc.benches) {
				t.Fatalf("%d matrix rows on stderr, want %d:\n%s", len(stderr.rows), len(tc.benches), stderr.log.String())
			}
			for k, snap := range stderr.rows {
				for _, id := range ids {
					if want := render(id, tc.benches[:k+1]); !bytes.Equal(snap[id], want) {
						t.Errorf("%s.txt after row %d is not the render of the rows so far:\n%s\nwant:\n%s", id, k+1, snap[id], want)
					}
				}
			}
			last := stderr.rows[len(stderr.rows)-1]
			for _, id := range ids {
				final, err := os.ReadFile(filepath.Join(dir, id+".txt"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(last[id], final) {
					t.Errorf("%s.txt after the last row differs from the final artifact:\n%s\nwant:\n%s", id, last[id], final)
				}
				if tc.omitted != "" && !bytes.Contains(final, []byte(tc.omitted)) {
					t.Errorf("%s.txt lacks the omitted-rows note %q:\n%s", id, tc.omitted, final)
				}
			}
		})
	}
}

// TestWarmRunSimulatesNothing: a run whose every result is on disk
// simulates nothing, and says so, however many runs the disk serves.
func TestWarmRunSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-only", "table2,fig9", "-insts", "5000", "-bench", "gzip", "-schemes", "adaptive", "-cache-dir", dir}
	simulations := func() string {
		t.Helper()
		experiment.ResetCache() // a fresh process: nothing in memory
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
		}
		for _, line := range strings.Split(stderr.String(), "\n") {
			if strings.Contains(line, " simulations, ") {
				return line
			}
		}
		t.Fatalf("no simulation count on stderr:\n%s", stderr.String())
		return ""
	}
	if cold := simulations(); strings.HasPrefix(cold, "experiments: 0 simulations") {
		t.Fatalf("cold run: %q; it must simulate", cold)
	}
	if warm := simulations(); !strings.HasPrefix(warm, "experiments: 0 simulations, ") {
		t.Errorf("warm run: %q, want 0 simulations", warm)
	}
}

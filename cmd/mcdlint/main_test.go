package main

import (
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the mcdlint binary once per test.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mcdlint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building mcdlint: %v\n%s", err, out)
	}
	return bin
}

// run executes the binary in dir and returns its combined output and
// exit code.
func runLint(t *testing.T, bin, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running mcdlint: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestFixtureViolations runs the multichecker end to end against the
// fixture modules, which seed at least one violation per analyzer:
// exit status 1 and a diagnostic from each checker.
func TestFixtureViolations(t *testing.T) {
	bin := buildLint(t)
	out, code := runLint(t, bin, "../../internal/lint/testdata/src/fixture.example", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		"[detrange] range over map",
		"[detsource] wall clock time.Now",
		"[detsource] global math/rand",
		"[detsource] %p formats a memory address",
		"[ctxflow] SpawnAll starts goroutines",
		"[ctxflow] Sweep accepts a context.Context but never propagates",
		"[errtaxonomy] Run returns a raw errors.New",
		"[errtaxonomy] Run returns fmt.Errorf without %w",
		"[schemeswitch] switch on Scheme",
		"[schemeswitch] tagless switch comparing Scheme values",
		"[dettaint] wall clock time.Now is reachable from the simulation entry points via mcd.RunSampled -> stats.Hop -> [iface] stats.(WallSampler).Sample -> stats.nowMillis",
		"[dettaint] filesystem enumeration os.ReadDir reads host state",
		"[dettaint] select with multiple communication cases",
		"[cachekey] Options.Depth is read on the run path (harness.go:",
		"[cachekey] Options.GovernorGain is read on the run path (chipkey.go:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// The escape hatch must have silenced the waived loop, and the
	// reachability check stays silent on a module without a main.
	if strings.Contains(out, "Fingerprint") || strings.Contains(out, "lintdirective") || strings.Contains(out, "[unreachable]") {
		t.Errorf("suppressed, directive or unreachable diagnostics leaked into output:\n%s", out)
	}

	// The reachability fixture is a program: a dead function and a
	// test-only one are reported, nothing the roots reach is.
	out, code = runLint(t, bin, "../../internal/lint/testdata/src/unreachable.example", "./...")
	if code != 1 {
		t.Fatalf("unreachable fixture: exit code = %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		"[unreachable] parts.Dead is unreachable",
		"[unreachable] parts.OnlyTested is unreachable",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 2 {
		t.Errorf("unreachable fixture: got %d findings, want 2\n%s", n, out)
	}
}

// TestRepoIsClean is the acceptance gate: the shipped tree has zero
// violations, so the binary exits 0 and prints nothing.
func TestRepoIsClean(t *testing.T) {
	bin := buildLint(t)
	out, code := runLint(t, bin, "../..", "./...")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("mcdlint on the repo: exit %d\n%s", code, out)
	}
}

// TestWholeProgramAnalyzersCleanOnRepo is the tentpole acceptance
// gate in isolation: the interprocedural analyzers find nothing to
// report in the shipped tree.
func TestWholeProgramAnalyzersCleanOnRepo(t *testing.T) {
	bin := buildLint(t)
	out, code := runLint(t, bin, "../..", "-run", "dettaint,cachekey,unreachable", "./...")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("mcdlint -run dettaint,cachekey,unreachable on the repo: exit %d\n%s", code, out)
	}
}

// TestNoStaleAllowDirectives pins the directive audit: every
// //lint:allow in the tree names a known analyzer, carries a reason,
// and suppresses a diagnostic that actually fires.
func TestNoStaleAllowDirectives(t *testing.T) {
	bin := buildLint(t)
	out, code := runLint(t, bin, "../..", "-run", "lintdirective", "./...")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("stale //lint:allow directives in the repo: exit %d\n%s", code, out)
	}
}

// TestJSONOutput checks the machine-readable mode: parseable, carries
// file/line/analyzer/message, includes waived findings with their
// allow reasons, and keeps the exit-code contract.
func TestJSONOutput(t *testing.T) {
	bin := buildLint(t)

	// The repo is clean, so -json exits 0 — but the six deliberate
	// cachekey exclusions must still appear, each with its reason.
	out, code := runLint(t, bin, "../..", "-json", "./internal/experiment")
	if code != 0 {
		t.Fatalf("-json on a clean package: exit %d\n%s", code, out)
	}
	var diags []struct {
		File        string `json:"file"`
		Line        int    `json:"line"`
		Col         int    `json:"col"`
		Analyzer    string `json:"analyzer"`
		Message     string `json:"message"`
		AllowReason string `json:"allow_reason"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	waived := 0
	for _, d := range diags {
		if d.AllowReason == "" {
			t.Errorf("clean tree emitted an unwaived diagnostic: %+v", d)
			continue
		}
		waived++
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("waived diagnostic missing a field: %+v", d)
		}
	}
	if waived < 6 {
		t.Errorf("got %d waived diagnostics for internal/experiment, want the 6 documented cachekey exclusions:\n%s", waived, out)
	}

	// On the fixture module, -json still exits 1 for active findings.
	out, code = runLint(t, bin, "../../internal/lint/testdata/src/fixture.example", "-json", "./...")
	if code != 1 {
		t.Fatalf("-json on the fixture module: exit %d, want 1\n%s", code, out)
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("-json fixture output is not a JSON array: %v\n%s", err, out)
	}
}

// TestSelectAnalyzers exercises -run filtering and -list.
func TestSelectAnalyzers(t *testing.T) {
	bin := buildLint(t)
	out, code := runLint(t, bin, "../../internal/lint/testdata/src/fixture.example", "-run", "errtaxonomy", "./internal/experiment")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if strings.Contains(out, "[ctxflow]") || !strings.Contains(out, "[errtaxonomy]") {
		t.Errorf("-run errtaxonomy ran the wrong analyzers:\n%s", out)
	}

	out, code = runLint(t, bin, ".", "-list")
	if code != 0 {
		t.Fatalf("-list exit code = %d\n%s", code, out)
	}
	for _, name := range []string{"detrange", "detsource", "ctxflow", "errtaxonomy", "schemeswitch", "dettaint", "cachekey", "unreachable"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

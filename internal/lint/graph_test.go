package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcddvfs/internal/lint/load"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden call-graph dump")

// TestGraphGolden pins the exact edge set the builder produces for the
// corner-case shapes in the graphfix fixture package: mutual recursion
// (both edges, termination), interface dispatch (conservative fan-out
// to value- and pointer-receiver implementations), a method value
// referenced without a call, and a call buried in a closure attributed
// to the enclosing declaration.
func TestGraphGolden(t *testing.T) {
	dir, err := filepath.Abs("testdata/src/fixture.example")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load(dir, "./internal/graphfix")
	if err != nil {
		t.Fatalf("loading graphfix fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	g := buildGraph(Targets(pkgs), pkgs[0].Fset)
	got := g.dump()

	golden := filepath.Join("testdata", "graph_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("call-graph dump differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// dump renders the graph as sorted "caller -> [via] callee" lines plus
// per-node source annotations — the format the golden call-graph test
// pins.
func (g *progGraph) dump() string {
	var b strings.Builder
	for _, n := range g.order {
		for _, e := range n.edges {
			fmt.Fprintf(&b, "%s -> [%s] %s\n", n.key, e.via, e.to.key)
		}
		for _, s := range n.sources {
			fmt.Fprintf(&b, "%s !! %s: %s\n", n.key, s.kind, s.what)
		}
	}
	return b.String()
}

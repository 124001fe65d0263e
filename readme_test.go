package mcddvfs

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestReadmeSchemeTable keeps the README's scheme table honest: every
// row is regenerated from the registry via Schemes(), so registering a
// new scheme without documenting it (or documenting one that does not
// exist) fails the build.
func TestReadmeSchemeTable(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(src)

	var rows []string
	for _, d := range Schemes() {
		kind := "core"
		switch {
		case !d.Controlled:
			kind = "baseline"
		case d.Extension:
			kind = "extension"
		}
		rows = append(rows, fmt.Sprintf("| `%s` | %s | %s |", d.Name, kind, d.Description))
	}
	table := strings.Join(rows, "\n")
	if !strings.Contains(readme, table) {
		t.Errorf("README scheme table is out of date; it must contain exactly these registry-derived rows in order:\n%s", table)
	}

	// No row for a scheme or governor the registries do not know. Rows
	// whose backticked token starts with "-" document CLI flags, not
	// registry entries.
	for _, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		name := strings.SplitN(line, "`", 3)[1]
		if strings.HasPrefix(name, "-") {
			continue
		}
		known := false
		for _, d := range Schemes() {
			if string(d.Name) == name {
				known = true
			}
		}
		for _, d := range Governors() {
			if d.Name == name {
				known = true
			}
		}
		if !known {
			t.Errorf("README documents unregistered scheme or governor %q", name)
		}
	}
}

// TestReadmeGovernorTable is the governor registry's twin of the scheme
// check: the README table must carry exactly the registry-derived rows,
// in registry order.
func TestReadmeGovernorTable(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, d := range Governors() {
		kind := "capping"
		if !d.Capping {
			kind = "baseline"
		}
		rows = append(rows, fmt.Sprintf("| `%s` | %s | %s |", d.Name, kind, d.Description))
	}
	table := strings.Join(rows, "\n")
	if !strings.Contains(string(src), table) {
		t.Errorf("README governor table is out of date; it must contain exactly these registry-derived rows in order:\n%s", table)
	}
}

// TestReadmeArtifactList is the artifact catalog's twin of the table
// checks: the README's "Experiment artifact IDs" paragraph must list
// exactly the Artifacts() IDs, in catalog order, as one code span.
func TestReadmeArtifactList(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(src)
	start := strings.Index(readme, "Experiment artifact IDs")
	if start < 0 {
		t.Fatal(`README has no "Experiment artifact IDs" paragraph`)
	}
	para, _, _ := strings.Cut(readme[start:], "\n\n")
	var ids []string
	for _, a := range Artifacts() {
		ids = append(ids, a.ID)
	}
	list := "`" + strings.Join(ids, " ") + "`"
	if !strings.Contains(strings.Join(strings.Fields(para), " "), list) {
		t.Errorf("README artifact ID list is out of date; its paragraph must contain this catalog-derived code span:\n%s", list)
	}
}

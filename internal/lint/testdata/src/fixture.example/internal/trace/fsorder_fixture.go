// Package trace is a lint fixture for the filesystem-enumeration ban
// in the trace package: its import path ends in internal/trace, which
// is both in detsource's fsListPackages scope (direct listings are
// detsource's findings here) and a dettaint root (everything it calls
// must be deterministic). A directory listing it needs must go through
// a sorted, waiver-audited helper such as internal/sortedfs.
package trace

import (
	"os"

	"fixture.example/internal/sortedfs"
)

// TraceNames lists a trace directory directly: host listing order
// leaks into whatever reads the names.
func TraceNames(dir string) []string {
	ents, err := os.ReadDir(dir) // want detsource `filesystem enumeration os.ReadDir`
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// StrayMembers enumerates through an open handle: the same host-order
// dependence in method-call shape.
func StrayMembers(dir string) []string {
	f, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer f.Close()
	names, _ := f.Readdirnames(-1) // want detsource `filesystem enumeration \(os.File\).Readdirnames`
	return names
}

// VerifiedNames goes through the sanctioned sorted helper: no
// diagnostic here, and the helper's audited //lint:allow waiver is
// what absorbs the underlying dettaint finding.
func VerifiedNames(dir string) ([]string, error) {
	return sortedfs.SortedNames(dir)
}

// Package sortedfs is the sanctioned shape of a directory listing: the
// names are sorted before anyone sees them, and the listing carries an
// audited waiver. It sits outside the fsListPackages scope, so the
// listing here is dettaint's finding — reachable from the
// internal/trace roots through VerifiedNames — and the audited waiver
// on the os.ReadDir line is what keeps the fixture clean. Removing the
// waiver must make dettaint fire.
package sortedfs

import (
	"os"
	"sort"
)

// SortedNames returns dir's entry names in ascending lexical order — a
// listing with no host-order dependence left in it.
func SortedNames(dir string) ([]string, error) {
	//lint:allow dettaint listing is sorted before use, removing the host-order dependence
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names, nil
}

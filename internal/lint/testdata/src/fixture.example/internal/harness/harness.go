// Package harness is a cachekey fixture: an options package — it
// declares Options and cacheKey — whose hash misses a field the run
// path reads.
package harness

import (
	"crypto/sha256"
	"fmt"
	"io"
)

// Options configures a fixture run.
type Options struct {
	// Width is hashed directly by cacheKey: covered.
	Width int
	// Rounds is hashed through a helper the key calls: coverage is
	// transitive over the call graph.
	Rounds int
	// Depth is read by RunOne but missing from the hash — the
	// stale-cache bug class this analyzer exists for.
	Depth int // want cachekey `Options.Depth is read on the run path \(harness.go:\d+\) but never enters the cacheKey hash`
	// Label names the output, not the computation; the escape hatch on
	// the declaration documents the deliberate exclusion. No diagnostic.
	//lint:allow cachekey names the output file, not the computation
	Label string
	// Spare is never read on the run path: no diagnostic.
	Spare int
}

func cacheKey(opt Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "w=%d;", opt.Width)
	hashRounds(h, opt)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashRounds proves coverage is computed over everything cacheKey
// reaches, not just its own body.
func hashRounds(w io.Writer, opt Options) {
	fmt.Fprintf(w, "r=%d;", opt.Rounds)
}

// RunOne is the exported run-path entry point.
func RunOne(opt Options) string {
	key := cacheKey(opt)
	sum := 0
	for i := 0; i < opt.Rounds; i++ {
		sum += opt.Width * opt.Depth
	}
	return fmt.Sprintf("%s/%s=%d", opt.Label, key, sum)
}

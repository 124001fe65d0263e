//go:build !race

package experiment

import (
	"context"
	"testing"
)

// TestWarmRenderAllocs pins the work of a render memo hit: checking the
// options, deriving the render key from memoized key halves, and
// copying the memoized bytes out. Before the key memo, every hit
// re-encoded the machine configuration: 36 allocations. The race
// detector makes sync.Pool drop entries at random, which would make the
// count vary, hence the build tag.
func TestWarmRenderAllocs(t *testing.T) {
	const maxAllocs = 8
	opt := memoOpt()
	for _, id := range []string{"fig9", "table1"} {
		want := render(t, id, FormatText, opt)
		render(t, id, FormatText, opt)
		avg := testing.AllocsPerRun(100, func() {
			body, _, err := RenderArtifactContext(context.Background(), id, FormatText, opt)
			if err != nil || len(body) != len(want) {
				t.Fatalf("warm %s render: %d bytes, %v", id, len(body), err)
			}
		})
		if avg > maxAllocs {
			t.Errorf("a warm %s render makes %.0f allocations, want at most %d", id, avg, maxAllocs)
		}
	}
}

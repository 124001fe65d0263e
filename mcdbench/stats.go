package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
)

// tally counts attempted operations and failed ones. An operation
// fails when it errors, is refused, or fails any correctness check.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// maxLoggedFailures bounds the failure messages printed to stderr.
const maxLoggedFailures = 20

// op records one attempted operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= maxLoggedFailures {
			fmt.Fprintln(os.Stderr, "mcdbench: check failed:", err)
		}
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// okShare is the share of attempted operations that passed every
// check (0 when nothing was attempted).
func (t *tally) okShare() float64 {
	attempted, failed := t.counts()
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between the closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of the usual reporting percentiles that
// still has at least ten samples beyond it, or 0 when there are too
// few samples for any.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0
}

// spread formats a timing sample as its median, its tail percentile
// and the sample count.
func spread(name string, xs []float64, unit string) string {
	s := fmt.Sprintf("%-34s p50 %10.4g", name, median(xs))
	if q := tailQuantile(len(xs)); q > 0 {
		s += fmt.Sprintf("  p%g %10.4g", q*100, quantile(xs, q))
	} else if len(xs) > 0 {
		s += fmt.Sprintf("  max %10.4g", quantile(xs, 1))
	}
	return s + fmt.Sprintf("  n %d  (%s)", len(xs), unit)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be a measurement rather than one outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples;
// the epsilon keeps p*n that is whole in decimal from rounding up.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentile is the highest ladder percentile that leaves at least
// minBeyond samples above it among n; 0 when even the median does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// timing is a set of latency samples in milliseconds.
type timing struct {
	ms []float64
}

func (t *timing) add(d time.Duration) { t.ms = append(t.ms, float64(d)/1e6) }

func (t *timing) sorted() []float64 {
	s := append([]float64(nil), t.ms...)
	sort.Float64s(s)
	return s
}

// summary formats a timing as its median and its supported tail, with
// the sample count.
func (t *timing) summary(name string) string {
	s := t.sorted()
	tp := tailPercentile(len(s))
	if tp == 0 {
		return fmt.Sprintf("%-28s n=%d (too few samples for a median with %d beyond it)", name, len(s), minBeyond)
	}
	if tp == 50 {
		return fmt.Sprintf("%-28s p50=%.3f ms  n=%d (no tail percentile leaves %d beyond it)", name, percentile(s, 50), len(s), minBeyond)
	}
	return fmt.Sprintf("%-28s p50=%.3f ms  p%g=%.3f ms  n=%d", name, percentile(s, 50), tp, percentile(s, tp), len(s))
}

// median of unsorted values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

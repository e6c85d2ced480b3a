package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule on a
// sorted copy: the smallest sample with at least a fraction q of the
// samples at or below it. It returns NaN for an empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median is the middle sample (the mean of the two middle samples for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reportablePercentile returns the highest whole percentile p (at most
// 99) whose nearest-rank sample still has at least minBeyond samples
// strictly above its rank, or 0 when n is too small for any. It is the
// rule the benchmark applies before it reports a tail percentile: a p90
// needs n >= 100 for ten samples beyond it.
func reportablePercentile(n, minBeyond int) int {
	for p := 99; p >= 1; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-rank >= minBeyond {
			return p
		}
	}
	return 0
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// tally counts attempted and failed operations of one run and keeps the
// reason of every failure for the log.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.reasons) < 50 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check records one output check: ok when cond holds, a failure with the
// formatted reason otherwise.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

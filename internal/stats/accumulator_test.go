package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// synth draws n deterministic pseudo-random samples shaped like waste
// ratios (bounded, right-skewed).
func synth(seed uint64, n int) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		u := r.Float64()
		xs[i] = 0.05 + 0.4*u*u // skewed toward the low end
	}
	return xs
}

// checkMoments cross-validates the online moments of xs against the
// two-pass functions.
func checkMoments(t *testing.T, xs []float64) {
	t.Helper()
	n := len(xs)
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	if a.N() != n {
		t.Fatalf("n=%d: N = %d", n, a.N())
	}
	// Mean is a plain ordered sum in both paths: bit-identical.
	if a.Mean() != Mean(xs) {
		t.Errorf("n=%d: Mean %v != exact %v (must be bit-identical)", n, a.Mean(), Mean(xs))
	}
	if n < 2 {
		if !math.IsNaN(a.Variance()) {
			t.Errorf("n=%d: variance %v, want NaN", n, a.Variance())
		}
		return
	}
	// Welford vs two-pass agree to floating-point noise.
	if rel := math.Abs(a.StdDev()-StdDev(xs)) / StdDev(xs); rel > 1e-9 {
		t.Errorf("n=%d: StdDev %v vs exact %v (rel err %.3g > 1e-9)", n, a.StdDev(), StdDev(xs), rel)
	}
}

// TestAccumulatorSmallNExact checks the moments from a single observation
// up to a few dozen, where the n < 2 variance edge case lives.
func TestAccumulatorSmallNExact(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17, 64, 65} {
		checkMoments(t, synth(uint64(n), n))
	}
}

func TestAccumulatorExactMoments(t *testing.T) {
	checkMoments(t, synth(7, 5000))
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || !math.IsNaN(a.Mean()) || !math.IsNaN(a.Variance()) {
		t.Fatal("empty accumulator moments not NaN")
	}
	if !math.IsInf(a.HalfWidth(0.95), 1) {
		t.Fatal("empty accumulator half-width not +Inf")
	}
}

func TestAccumulatorConstantMemory(t *testing.T) {
	var a Accumulator
	for i := 0; i < 1000; i++ {
		a.Add(float64(i % 97))
	}
	allocs := testing.AllocsPerRun(1000, func() { a.Add(1.0) })
	if allocs != 0 {
		t.Fatalf("Add allocates %v per op, want 0", allocs)
	}
}

package stats

import "math"

// Accumulator folds observations into their running count, mean and
// variance in O(1) memory: the mean is a plain ordered sum (bit-identical
// to Mean over the same sequence) and the variance follows Welford's
// recurrence. It backs the confidence interval of the engine's
// Monte-Carlo fold and its sequential-stopping rule; the candlestick
// quantiles are computed exactly by Summarize.
//
// The zero value is ready to use.
type Accumulator struct {
	n        int
	sum      float64
	mean, m2 float64 // Welford recurrence
}

// Add folds one observation into the running statistics.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.sum += x
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (sum/n, identical to Mean over the same
// sequence), or NaN before the first observation.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / float64(a.n)
}

// Variance returns the unbiased sample variance via Welford's recurrence,
// or NaN for fewer than two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// HalfWidth returns the half-width of the two-sided confidence interval
// on the mean at the given confidence level (e.g. 0.95), using the
// normal critical value over the Welford standard error. It returns +Inf
// for fewer than two observations — sequential-stopping drivers gate on
// a minimum replicate count before trusting it.
func (a *Accumulator) HalfWidth(confidence float64) float64 {
	if a.n < 2 {
		return math.Inf(1)
	}
	return ZScore(confidence) * a.StdDev() / math.Sqrt(float64(a.n))
}

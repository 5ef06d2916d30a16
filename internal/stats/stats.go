// Package stats implements the statistical substrate used throughout the
// STEM+ROOT reproduction: descriptive statistics, streaming moments,
// quantiles, histograms, kernel density estimation, peak detection, and the
// normal distribution (including the inverse CDF used to derive z-scores for
// arbitrary confidence levels).
//
// STEM's error model (paper §3.2) is built entirely on the mean, standard
// deviation, and coefficient of variation of kernel execution times, so this
// package is the foundation of the whole methodology.
//
// Every function is pure (no package-level mutable state, no memoization)
// and safe for concurrent use; the one stateful type, the Online streaming
// accumulator, must be confined to a single goroutine.
package stats

import "math"

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	// Kahan summation: workloads mix nanosecond kernels with second-long
	// ones, so naive accumulation loses precision over millions of terms.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance (divisor n-1) of xs.
// It returns 0 when fewer than two observations are given.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mean := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation sigma/mu. The paper (§3.2) uses
// CoV as the hardware-portable proxy for a kernel's runtime variability.
// It returns 0 when the mean is zero.
func CoV(xs []float64) float64 {
	mu := Mean(xs)
	if mu == 0 {
		return 0
	}
	return StdDev(xs) / mu
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Online accumulates streaming moments with Welford's algorithm, allowing
// million-invocation workloads to be summarized without materializing their
// execution-time vectors. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	sum  float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	o.n++
	o.sum += x
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of observations added.
func (o *Online) N() int { return o.n }

// Sum returns the sum of the observations, in the order they were added.
func (o *Online) Sum() float64 { return o.sum }

// Mean returns the running mean.
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the unbiased sample variance.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

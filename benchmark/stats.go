package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples the way the benchmark reports
// them: a median with quartiles and extremes, never a single point.
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// summarize computes the order statistics of xs. Quartiles use the
// exclusive method of Python's statistics.quantiles(xs, n=4) — the one the
// benchmark contract's spread check applies — so the IQR printed here is
// the number that check will compute from the same values.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Q1, s.Median, s.Q3 = quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
	return s
}

// quantile is the exclusive-method quantile of sorted v: position
// p*(n+1) on a 1-based scale, linearly interpolated and clamped to the
// sample range.
func quantile(v []float64, p float64) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return v[0]
	}
	if pos >= float64(n-1) {
		return v[n-1]
	}
	lo := int(math.Floor(pos))
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

// iqrShare is the interquartile range as a share of the median — the
// spread the contract bounds. It is 0 when the median is.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func median(xs []float64) float64 { return summarize(xs).Median }

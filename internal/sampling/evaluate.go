package sampling

import (
	"errors"
	"math"

	"stemroot/internal/stats"
	"stemroot/internal/trace"
)

// Outcome reports one sampled-simulation evaluation.
type Outcome struct {
	Method string
	// Samples is the number of distinct simulated invocations.
	Samples int
	// Speedup is full-workload time over sampled-workload time (paper §5:
	// "the ratio of the cycle count of the full workload to that of the
	// sampled workload").
	Speedup float64
	// ErrorPct is the sampling error of Eq. (1), in percent.
	ErrorPct float64
}

// EvaluateTimes scores a plan against per-invocation ground-truth times
// (from a profile on any device, or cycle counts from a simulator): the
// estimate uses only sampled kernels' times; the truth is the full sum.
func EvaluateTimes(plan *Plan, times []float64) (Outcome, error) {
	if plan == nil || len(times) == 0 {
		return Outcome{}, errors.New("sampling: nothing to evaluate")
	}
	var sampledCost float64
	idxs := plan.SampledIndices()
	for _, ix := range idxs {
		if ix < 0 || ix >= len(times) {
			return Outcome{}, errors.New("sampling: plan index out of range")
		}
		sampledCost += times[ix]
	}

	var truth float64
	for _, t := range times {
		truth += t
	}
	out := Outcome{Method: plan.Method, Samples: len(idxs)}
	out.ErrorPct, out.Speedup = Score(plan.Estimate(func(i int) float64 { return times[i] }), truth, sampledCost)
	return out, nil
}

// Score is the paper's two figures of merit for an estimate est of the
// total truth whose samples cost cost to simulate (in truth's unit): the
// sampling error of Eq. (1), |est − truth| / truth in percent, and the
// speedup truth / cost. Each is 0 when its denominator is not positive.
// Every sampling error the repository reports is computed here.
func Score(est, truth, cost float64) (errPct, speedup float64) {
	if truth > 0 {
		errPct = math.Abs(est-truth) / truth * 100
	}
	if cost > 0 {
		speedup = truth / cost
	}
	return errPct, speedup
}

// Evaluate scores a plan against the profile of the same workload — the
// common case where ground truth comes from machine profiles (paper §5.1:
// "we used the profiler's cycle counts to calculate speedup and error").
func Evaluate(plan *Plan, w *trace.Workload, prof *trace.Profile) (Outcome, error) {
	if err := prof.Validate(w); err != nil {
		return Outcome{}, err
	}
	return EvaluateTimes(plan, prof.TimeUS)
}

// MeanErrorPct averages the errors of a set of outcomes (the paper uses the
// arithmetic mean for error).
func MeanErrorPct(outs []Outcome) float64 {
	if len(outs) == 0 {
		return 0
	}
	var sum float64
	for _, o := range outs {
		sum += o.ErrorPct
	}
	return sum / float64(len(outs))
}

// HarmonicMeanSpeedup averages speedups harmonically (the paper follows
// Eeckhout's recommendation for speedups). Outcomes with zero speedup are
// skipped.
func HarmonicMeanSpeedup(outs []Outcome) float64 {
	var inv float64
	n := 0
	for _, o := range outs {
		if o.Speedup > 0 {
			inv += 1 / o.Speedup
			n++
		}
	}
	if n == 0 || inv == 0 {
		return 0
	}
	return float64(n) / inv
}

// Coverage is one cell of the empirical check of STEM's bound by repeated
// subsampling: of Plans independent plans, Covered estimated the truth
// within ε; they drew Samples distinct invocations and their errors sum to
// ErrSumPct. The zero value is an empty cell.
type Coverage struct {
	Covered, Plans, Samples int
	ErrSumPct               float64
}

// Add counts one plan's outcome against the bound epsilon (a fraction).
func (c *Coverage) Add(o Outcome, epsilon float64) {
	c.Plans++
	c.Samples += o.Samples
	c.ErrSumPct += o.ErrorPct
	if o.ErrorPct <= epsilon*100 {
		c.Covered++
	}
}

// Merge adds the counts of another cell.
func (c *Coverage) Merge(o Coverage) {
	c.Covered += o.Covered
	c.Plans += o.Plans
	c.Samples += o.Samples
	c.ErrSumPct += o.ErrSumPct
}

// Rate is the covered share of the plans.
func (c Coverage) Rate() float64 { return float64(c.Covered) / float64(c.Plans) }

// Wilson is the Wilson score interval of the rate at normal quantile z.
func (c Coverage) Wilson(z float64) (lo, hi float64) { return stats.Wilson(c.Covered, c.Plans, z) }

// MeanErrorPct is the plans' mean error, in percent.
func (c Coverage) MeanErrorPct() float64 { return c.ErrSumPct / float64(c.Plans) }

// SamplesPerPlan is the mean number of distinct invocations a plan drew.
func (c Coverage) SamplesPerPlan() float64 { return float64(c.Samples) / float64(c.Plans) }

// Package metrics implements the microarchitectural-metric validation of
// the paper's Figure 14: the 13 metrics across four categories (memory
// access patterns, cache behaviour, floating-point precision, and execution
// control) are extrapolated from the sampled kernels with the same weighted
// sum used for total execution time, and compared against the full-workload
// aggregate.
//
// All functions are pure aggregations over their inputs and safe for
// concurrent use.
package metrics

import (
	"errors"

	"stemroot/internal/hwmodel"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
)

// Vector holds one value per metric, indexed like hwmodel.MicroNames.
type Vector [13]float64

// Names re-exports the metric names.
var Names = hwmodel.MicroNames

// Aggregate computes the full-workload value of each metric: count metrics
// sum over all invocations, rate metrics average over them.
func Aggregate(w *trace.Workload, m *hwmodel.Model) Vector {
	var out Vector
	if w.Len() == 0 {
		return out
	}
	for i := range w.Invs {
		mm := m.Micro(&w.Invs[i])
		for j, v := range mm {
			out[j] += v
		}
	}
	for j, isCount := range hwmodel.CountMetrics {
		if !isCount {
			out[j] /= float64(w.Len())
		}
	}
	return out
}

// Estimate extrapolates each metric from a sampling plan: weighted sums for
// counts, weighted means for rates (weights normalize to the workload size).
func Estimate(plan *sampling.Plan, w *trace.Workload, m *hwmodel.Model) (Vector, error) {
	var out Vector
	if plan == nil || w.Len() == 0 {
		return out, errors.New("metrics: nothing to estimate")
	}
	var weightTotal float64
	for ci := range plan.Clusters {
		c := &plan.Clusters[ci]
		for _, s := range c.Samples {
			if s < 0 || s >= w.Len() {
				return out, errors.New("metrics: sample index out of range")
			}
			mm := m.Micro(&w.Invs[s])
			for j, v := range mm {
				out[j] += c.Weight * v
			}
			weightTotal += c.Weight
		}
	}
	if weightTotal > 0 {
		for j, isCount := range hwmodel.CountMetrics {
			if !isCount {
				out[j] /= weightTotal
			}
		}
	}
	return out, nil
}

// RelErrorsPct returns |est-full|/full per metric in percent (sampling.Score:
// 0 when the full value is not positive).
func RelErrorsPct(full, est Vector) Vector {
	var out Vector
	for j := range full {
		out[j], _ = sampling.Score(est[j], full[j], 0)
	}
	return out
}

// MaxPct returns the largest relative error across the 13 metrics.
func MaxPct(errs Vector) float64 {
	var mx float64
	for _, v := range errs {
		if v > mx {
			mx = v
		}
	}
	return mx
}

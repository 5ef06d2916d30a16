// Package sampling implements the kernel-level sampling methods compared in
// the paper (Table 1): uniform Random, PKA, Sieve, Photon, and STEM+ROOT,
// all behind one Method interface, plus the weighted-sum estimator and the
// speedup/error evaluation used across every experiment.
//
// Only STEM+ROOT reads measured execution times (that is its signature);
// PKA, Sieve, and Photon consume instruction-level metrics, instruction
// counts, and basic-block vectors respectively, exactly as in Table 1.
//
// Method values are cheap to construct and derive per-plan RNGs from their
// seed rather than sharing generator state; the parallel experiment
// runners nevertheless construct a fresh Method set per worker goroutine,
// which is the supported concurrency pattern.
package sampling

import (
	"slices"

	"stemroot/internal/trace"
)

// Group is one cluster of a sampling plan: the invocation indices simulated
// for it and the weight each sample's measured time carries in the
// weighted-sum extrapolation.
type Group struct {
	// Samples are invocation indices to simulate (possibly with repeats for
	// with-replacement draws; repeats are simulated once and counted twice).
	Samples []int
	// Weight is the number of invocations each sample stands for: every
	// sample's time is multiplied by it and summed, so a group representing
	// N invocations with m samples uses Weight = N/m.
	Weight float64
}

// Plan is the sampling information a method produces for one workload — the
// artifact embedded in the trace in the paper's Figure 5 pipeline.
type Plan struct {
	Method string
	Groups []Group
}

// Estimate extrapolates total execution time using per-invocation times
// from timeOf (which may come from a different device or a simulator).
func (p *Plan) Estimate(timeOf func(int) float64) float64 {
	var total float64
	for gi := range p.Groups {
		g := &p.Groups[gi]
		var sum float64
		for _, s := range g.Samples {
			sum += timeOf(s)
		}
		total += g.Weight * sum
	}
	return total
}

// SampledIndices returns the distinct invocations the plan requires
// simulating, in ascending order.
func (p *Plan) SampledIndices() []int {
	n := 0
	for gi := range p.Groups {
		n += len(p.Groups[gi].Samples)
	}
	out := make([]int, 0, n)
	for gi := range p.Groups {
		out = append(out, p.Groups[gi].Samples...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Method is a kernel-level sampling technique.
type Method interface {
	// Name identifies the method in experiment output.
	Name() string
	// Plan selects samples for the workload. prof carries the lightweight
	// execution-time profile; only execution-time-based methods (STEM) may
	// read prof.TimeUS — signature-based baselines must rely on the static
	// features in w.
	Plan(w *trace.Workload, prof *trace.Profile) (*Plan, error)
}

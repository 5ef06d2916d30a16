// Package sampling implements the kernel-level sampling methods compared in
// the paper (Table 1): uniform Random, PKA, Sieve, Photon, and STEM+ROOT,
// all behind one Method interface, plus the speedup/error evaluation used
// across every experiment. The weighted-sum estimator is core.Plan's.
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
	"stemroot/internal/core"
	"stemroot/internal/trace"
)

// Plan is the sampling information a method produces for one workload — the
// artifact embedded in the trace in the paper's Figure 5 pipeline. Its
// clusters are core's one cluster record; a baseline fills only their
// Samples and Weight, and estimates through the embedded core.Plan.
type Plan struct {
	Method string
	core.Plan
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

// Package core implements the paper's primary contribution:
//
//   - STEM (Statistical Error Modeling): given the execution-time
//     distribution of kernel clusters, the Central Limit Theorem yields the
//     sampling error of the weighted-sum estimator (Eq. 2). Inverting it
//     gives the minimal sample size meeting an error bound ε for one cluster
//     (Eq. 3), and a KKT solver jointly minimizes total simulated time
//     across many clusters (Problem 1, Eq. 6).
//
//   - ROOT (fine-grained hierarchical clustering): kernels grouped by name
//     are recursively split at the exact 1-D k-means cut of their sorted
//     execution times; a split is kept only if STEM's estimated simulation
//     time decreases (Eq. 7 vs Eq. 8).
//     Theorem 3.1 guarantees the union of per-set error-bounded clusters
//     remains error-bounded.
//
// # Concurrency
//
// All functions are pure and safe for concurrent use. Every plan fans ROOT
// out across kernel-name groups over up to Params.Workers workers, one per
// rootGrainRows rows or reservoir slots (fewer never leave the calling
// goroutine); a split reads its own group's times and nothing else, so the
// plan is bit-identical for every worker count.
package core

import (
	"errors"
	"sync/atomic"

	"stemroot/internal/stats"
)

// Params are the tunable knobs of STEM+ROOT. The paper's defaults are
// ε = 0.05 at 95% confidence with k = 2 subclusters per ROOT split.
type Params struct {
	// Epsilon is the target relative error bound (0.05 = 5%).
	Epsilon float64
	// Confidence is the confidence level (0.95 gives z = 1.96).
	Confidence float64
	// SplitK is the number of subclusters per ROOT split (>= 2).
	SplitK int
	// Flat disables ROOT's hierarchical splitting: one cluster per kernel
	// name, jointly sized by STEM — the ablation comparing ROOT's
	// fine-grained clustering against name-level clustering. Both planners
	// (BuildPlan, IncrementalPlanner) honour it, because both split through
	// splitGroup, its only reader.
	Flat bool
	// Seed drives sample selection only: ROOT's clustering is a function of
	// the times.
	Seed uint64
	// SmallSampleT enables the Student-t small-sample correction: clusters
	// whose z-based size falls below the CLT rule-of-thumb (m < 30) are
	// resized with t quantiles. An extension beyond the paper.
	SmallSampleT bool
	// Workers bounds ROOT's per-kernel-name fan-out in every plan, batch or
	// streaming: 0 allows one worker per CPU, 1 forces the serial path, and
	// a negative count is ErrParallelism. A plan uses one worker per
	// rootGrainRows (1024) rows or reservoir slots up to this bound, so a
	// small profile is clustered on the calling goroutine at any value.
	// Output is identical for every value.
	Workers int
}

// DefaultParams returns the paper's evaluation configuration.
func DefaultParams() Params {
	return Params{
		Epsilon:    0.05,
		Confidence: 0.95,
		SplitK:     2,
		Seed:       1,
	}
}

// ROOT never splits a cluster smaller than minClusterSize, and stops
// descending at maxDepth as a safety net.
const (
	minClusterSize = 8
	maxDepth       = 24
)

// What Validate returns for the four parameters callers set, so that every
// planner — and the public package, which re-exports all but ErrSplitK —
// refuses an out-of-domain value by name.
var (
	ErrEpsilon = errors.New("core: Epsilon must be in (0,1)")
	// A confidence within an ulp of 1 has no z-score: 1−α/2 rounds to 1.
	ErrConfidence = errors.New("core: Confidence must be in (0,1), with 1-(1-Confidence)/2 below 1 in float64")
	ErrSplitK     = errors.New("core: SplitK must be >= 2")
	// Workers is the public Options.Parallelism; only 0 selects one
	// worker per CPU.
	ErrParallelism = errors.New("core: Parallelism must be >= 0 (0 means one worker per CPU)")
)

// Validate reports parameter errors. The comparisons are written so that a
// NaN fails them, and the confidence check is Z's own computation: Z cannot
// panic on a Params that Validate accepted.
func (p Params) Validate() error {
	switch {
	case !(p.Epsilon > 0 && p.Epsilon < 1):
		return ErrEpsilon
	case !confidenceHasZ(p.Confidence):
		return ErrConfidence
	case p.SplitK < 2:
		return ErrSplitK
	case p.Workers < 0:
		return ErrParallelism
	}
	return nil
}

func confidenceHasZ(confidence float64) bool {
	_, err := stats.ZScore(confidence)
	return err == nil
}

// Z returns z_{1-alpha/2} for the configured confidence level. A run plans
// at one level and asks for its score at every sizing and error estimate,
// so the last level's score is kept: the quantile is computed once per
// level, and what comes back is the float it computes.
func (p Params) Z() float64 {
	if m := zMemo.Load(); m != nil && m.confidence == p.Confidence {
		return m.z
	}
	z := stats.MustZScore(p.Confidence)
	zMemo.Store(&zScore{p.Confidence, z})
	return z
}

type zScore struct{ confidence, z float64 }

var zMemo atomic.Pointer[zScore]

// ClusterStats summarizes one kernel cluster's execution times: population
// size N, mean μ, and standard deviation σ. These three numbers are all
// STEM needs — the "beauty of STEM lies in its versatility" (§3.2).
type ClusterStats struct {
	N      int
	Mean   float64
	StdDev float64
}

// CoV returns σ/μ, or 0 for a zero mean.
func (c ClusterStats) CoV() float64 {
	if c.Mean == 0 {
		return 0
	}
	return c.StdDev / c.Mean
}

// Total returns N*μ, the cluster's contribution to total execution time.
func (c ClusterStats) Total() float64 { return float64(c.N) * c.Mean }

// StatsOf computes ClusterStats from a slice of execution times.
func StatsOf(times []float64) ClusterStats {
	var o stats.Online
	for _, t := range times {
		o.Add(t)
	}
	return ClusterStats{N: o.N(), Mean: o.Mean(), StdDev: o.StdDev()}
}

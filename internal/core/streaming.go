package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"stemroot/internal/rng"
	"stemroot/internal/stats"
)

// ProfileScanner streams (kernel name, execution time) pairs in invocation
// order. Scan calls yield for every invocation and stops early if yield
// returns false; it must produce the identical sequence on every call.
// It abstracts profile sources too large to hold in memory — the paper's
// GPT-2 trace has over fifty million kernel invocations.
type ProfileScanner interface {
	Scan(yield func(name string, timeUS float64) bool) error
}

// SliceScanner adapts in-memory name/time slices to ProfileScanner.
type SliceScanner struct {
	Names []string
	Times []float64
}

// Scan implements ProfileScanner.
func (s SliceScanner) Scan(yield func(string, float64) bool) error {
	if len(s.Names) != len(s.Times) {
		return errors.New("core: mismatched scanner slices")
	}
	for i, n := range s.Names {
		if !yield(n, s.Times[i]) {
			return nil
		}
	}
	return nil
}

// validTime reports whether t can enter a plan: a NaN makes the predicted
// error NaN and a +Inf makes it 0, neither of which is a bound, and the
// error model has no meaning for negative durations.
func validTime(t float64) bool { return t >= 0 && !math.IsInf(t, 1) }

func invalidTimeError(t float64, invocation int) error {
	return fmt.Errorf("core: time %v at invocation %d is not a finite non-negative number", t, invocation)
}

// reservoir keeps a uniform sample of a stream (Vitter's algorithm R): of
// execution times in pass 1, of invocation indices in pass 2. One Intn per
// observation once full, whatever T is.
type reservoir[T any] struct {
	cap  int
	seen int
	vals []T
	r    *rng.Rand
}

func newReservoir[T any](cap int, r *rng.Rand) *reservoir[T] {
	return &reservoir[T]{cap: cap, vals: make([]T, 0, cap), r: r}
}

func (rv *reservoir[T]) add(v T) {
	rv.seen++
	if len(rv.vals) < rv.cap {
		rv.vals = append(rv.vals, v)
		return
	}
	if j := rv.r.Intn(rv.seen); j < rv.cap {
		rv.vals[j] = v
	}
}

// StreamOptions tunes BuildPlanStream and the single-pass
// IncrementalPlanner.
type StreamOptions struct {
	// ReservoirCap bounds the per-kernel-name time sample used for
	// clustering (default 8192). Peak memory is independent of trace
	// length: O(#names × ReservoirCap) for the reservoirs, plus
	// O(#clusters × maxSampleSize) candidate index reservoirs in
	// BuildPlanStream or O(ReservoirCap) re-plan scratch in the
	// IncrementalPlanner, plus the plan.
	ReservoirCap int

	// ReplanEvery is the IncrementalPlanner's amortization factor: a
	// cached plan is re-derived once the invocation count grows by this
	// multiple since the last re-plan (default 2 — the doubling
	// schedule). Values <= 1 re-plan on every snapshot. BuildPlanStream
	// ignores it.
	ReplanEvery float64

	// DriftTol re-plans early when any kernel's exact running mean moves
	// by more than this fraction of its value at the last re-plan
	// (default 0.25; negative disables the drift trigger).
	// BuildPlanStream ignores it.
	DriftTol float64
}

// reservoirCap resolves the default.
func (o StreamOptions) reservoirCap() int {
	if o.ReservoirCap <= 0 {
		return 8192
	}
	return o.ReservoirCap
}

// BuildPlanStream builds a STEM+ROOT plan from an out-of-core profile in
// two streaming passes:
//
//  1. Per kernel name, accumulate exact counts plus a bounded uniform
//     reservoir of execution times. ROOT clusters each reservoir; because
//     1-D k-means clusters are contiguous, every leaf becomes a half-open
//     time interval, so cluster membership is decidable from (name, time)
//     alone.
//  2. Stream again: count each cluster's exact population, accumulate its
//     exact moments, and reservoir-sample candidate invocation indices.
//     Final sample sizes come from the exact statistics; the plan draws
//     its samples (with replacement) from the candidate reservoirs.
//
// Memory is O(#names * ReservoirCap + #clusters * maxSampleSize);
// time is two sequential scans plus near-linear clustering — matching the
// paper's scalability claim for million-kernel workloads.
func BuildPlanStream(src ProfileScanner, p Params, opts StreamOptions) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rcap := opts.reservoirCap()

	// ---- Pass 1: reservoirs per kernel name ----
	states := make(map[string]*reservoir[float64])
	var order []string
	seedGen := rng.New(rng.Derive(p.Seed, seedLabelReservoir))
	var bad error
	seen := 0
	if err := src.Scan(func(name string, t float64) bool {
		if !validTime(t) {
			bad = invalidTimeError(t, seen)
			return false
		}
		seen++
		res := states[name]
		if res == nil {
			res = newReservoir[float64](rcap, seedGen.Split())
			states[name] = res
			order = append(order, name)
		}
		res.add(t)
		return true
	}); err != nil {
		return nil, err
	}
	if bad != nil {
		return nil, bad
	}
	if len(order) == 0 {
		return nil, errors.New("core: empty profile stream")
	}
	sort.Strings(order)

	// Cluster each reservoir with ROOT; convert leaves to half-open
	// intervals of the real line (shared with the IncrementalPlanner).
	var arena splitArena
	var sc cutScratch
	cuts := make(map[string][]float64) // upper bounds, ascending
	base := make(map[string]int)       // first interval index of the name
	var ivNames []string               // interval index -> kernel name
	for _, name := range order {
		cs := sc.deriveCuts(nil, name, states[name].vals, p, &arena)
		base[name] = len(ivNames)
		cuts[name] = cs
		for range cs {
			ivNames = append(ivNames, name)
		}
	}
	assign := func(name string, t float64) int {
		return base[name] + intervalOf(cuts[name], t)
	}

	// ---- Pass 2: exact per-cluster statistics + index reservoirs ----
	exact := make([]stats.Online, len(ivNames))
	// Candidate reservoirs sized generously; trimmed to the final m later.
	candCap := maxCandidateSize(p)
	cands := make([]*reservoir[int], len(ivNames))
	for i := range cands {
		cands[i] = newReservoir[int](candCap, seedGen.Split())
	}
	pos := 0
	if err := src.Scan(func(name string, t float64) bool {
		ci := assign(name, t)
		exact[ci].Add(t)
		cands[ci].add(pos)
		pos++
		return true
	}); err != nil {
		return nil, err
	}

	// Final sizing from exact statistics.
	statsVec := make([]ClusterStats, len(ivNames))
	for i := range statsVec {
		o := &exact[i]
		statsVec[i] = ClusterStats{N: o.N(), Mean: o.Mean(), StdDev: o.StdDev()}
	}
	sizes := OptimalSizes(statsVec, p)
	if p.SmallSampleT {
		sizes = ApplyTCorrection(statsVec, sizes, p)
	}

	plan := &Plan{Params: p}
	drawGen := rng.New(rng.Derive(p.Seed, seedLabelDraw))
	for i, name := range ivNames {
		m := sizes[i]
		cs := statsVec[i]
		pc := PlanCluster{Name: name, SampleSize: m, Stats: cs}
		if cs.N > 0 && m > 0 {
			pool := cands[i].vals
			if len(pool) == 0 {
				return nil, fmt.Errorf("core: cluster %d has population but no candidates", i)
			}
			if m >= cs.N {
				// Exact coverage is impossible without indices for every
				// member; cap at the candidate pool (distinct draws).
				m = min(cs.N, len(pool))
				pc.SampleSize = m
				pc.Samples = append([]int(nil), pool[:m]...)
				pc.Weight = float64(cs.N) / float64(m)
			} else {
				pc.Weight = float64(cs.N) / float64(m)
				pc.Samples = make([]int, m)
				for j := range pc.Samples {
					pc.Samples[j] = pool[drawGen.Intn(len(pool))]
				}
			}
		}
		plan.Clusters = append(plan.Clusters, pc)
	}
	if err := plan.setBound(statsVec, sizes); err != nil {
		return nil, err
	}
	return plan, nil
}

// maxCandidateSize bounds the per-cluster candidate reservoir: at least a
// thousand and comfortably above any plausible sample size for the error
// bound.
func maxCandidateSize(p Params) int {
	z := p.Z()
	// Largest single-cluster size for CoV = 3 (an extreme spread).
	m := int(math.Ceil(math.Pow(z/p.Epsilon*3, 2)))
	if m < 1000 {
		m = 1000
	}
	if m > 200000 {
		m = 200000
	}
	return m
}

package core

import (
	"math"
	"sort"

	"stemroot/internal/rng"
	"stemroot/internal/stats"
)

// The naive references the planners are checked against. Each one is
// written from the rule it implements, allocates freely, and calls nothing
// of the planner it checks: the batch recursion (rootSplit and its arena),
// the streaming planner's leaves (splitReservoir) and its apportionment
// (nameStats) all have to reproduce these bit for bit.

// refRootSplit is ROOT at its plainest, for SplitK = 2: a leaf reports
// StatsOf over its members in chronological order. A node of at least
// minClusterSize members, not Flat, is sorted with sort.Float64s; the
// within-group sum of squares of every cut between two distinct times is
// computed in two passes (mean, then squared deviations) and the least
// taken (the first on a tie); the split is kept only when it lowers STEM's
// simulated time (Eq. 7 vs Eq. 8), the node and both sides sized from the
// statistics they would report as leaves.
func refRootSplit(name string, times []float64, idxs []int, p Params, depth int, out []Cluster) []Cluster {
	if p.SplitK != 2 {
		panic("refRootSplit: SplitK must be 2")
	}
	vals := make([]float64, len(idxs))
	for i, ix := range idxs {
		vals[i] = times[ix]
	}
	leaf := Cluster{Name: name, Indices: idxs, Stats: StatsOf(vals)}
	cs := leaf.Stats
	if p.Flat || len(vals) < minClusterSize || depth >= maxDepth || cs.StdDev == 0 {
		return append(out, leaf)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	cut, least := 0, math.Inf(1)
	for c := 1; c < len(sorted); c++ {
		if sorted[c-1] == sorted[c] {
			continue
		}
		if sse := refSSE(sorted[:c]) + refSSE(sorted[c:]); sse < least {
			cut, least = c, sse
		}
	}
	if cut == 0 {
		return append(out, leaf)
	}

	var lower, upper []int
	var lowerVals, upperVals []float64
	for _, ix := range idxs {
		if times[ix] <= sorted[cut-1] {
			lower, lowerVals = append(lower, ix), append(lowerVals, times[ix])
		} else {
			upper, upperVals = append(upper, ix), append(upperVals, times[ix])
		}
	}
	subStats := []ClusterStats{StatsOf(lowerVals), StatsOf(upperVals)}
	tauOld := float64(SampleSize(cs, p)) * cs.Mean
	tauNew := SimTime(subStats, OptimalSizes(subStats, p))
	if tauNew >= tauOld {
		return append(out, leaf)
	}
	out = refRootSplit(name, times, lower, p, depth+1, out)
	return refRootSplit(name, times, upper, p, depth+1, out)
}

// refSSE is the sum of squared deviations from the mean, in two passes.
func refSSE(s []float64) float64 {
	var mean float64
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	var sse float64
	for _, v := range s {
		sse += (v - mean) * (v - mean)
	}
	return sse
}

// refBuildClusters runs refRootSplit over every kernel name, in first-seen
// order. The production path flattens in sorted name order, so callers
// compare leaf sets per name.
func refBuildClusters(names []string, times []float64, p Params) []Cluster {
	byName := make(map[string][]int)
	var order []string
	for i, n := range names {
		if _, ok := byName[n]; !ok {
			order = append(order, n)
		}
		byName[n] = append(byName[n], i)
	}
	var out []Cluster
	for _, name := range order {
		out = append(out, refRootSplit(name, times, byName[name], p, 0, nil)...)
	}
	return out
}

// refCuts is a streaming re-plan's interval bounds for one kernel: ROOT
// over the reservoir values, each leaf's largest value, ascending.
func refCuts(name string, vals []float64, p Params) []float64 {
	idxs := make([]int, len(vals))
	for i := range idxs {
		idxs[i] = i
	}
	var cuts []float64
	for _, leaf := range refRootSplit(name, vals, idxs, p, 0, nil) {
		hi := vals[leaf.Indices[0]]
		for _, ix := range leaf.Indices {
			hi = max(hi, vals[ix])
		}
		cuts = append(cuts, hi)
	}
	sort.Float64s(cuts)
	return cuts
}

// refNameStats is nameStats as its doc comment states it. A kernel whose
// reservoir holds every observation keeps the reservoir statistics, at
// scale 1. Otherwise interval i's quota of the exact count N is
// N·n_i/r, for n_i of the r reservoir members: each interval gets the
// quota's floor, but at least one; the intervals with the largest
// remainders get one more until the populations sum to N (ties to the lower
// index), or, if the floors of one overshoot, those with the smallest
// remainders that can spare one give it back. Means and deviations are
// then scaled so that Σ N_c·μ_c is the kernel's exact total.
func refNameStats(st *incNameState, reservoir []ClusterStats) ([]ClusterStats, float64) {
	out := append([]ClusterStats(nil), reservoir...)
	r := st.res.filled()
	if st.res.seen <= r {
		return out, 1
	}
	exactN := st.exact.N()
	assigned := 0
	order := make([]int, len(out))
	rems := make([]int, len(out)) // each interval's remainder times r, exact
	for i := range out {
		out[i].N = max(exactN*reservoir[i].N/r, 1)
		assigned += out[i].N
		order[i] = i
		rems[i] = exactN*reservoir[i].N - out[i].N*r
	}
	if assigned < exactN {
		sort.SliceStable(order, func(a, b int) bool { return rems[order[a]] > rems[order[b]] })
		for _, i := range order[:exactN-assigned] {
			out[i].N++
		}
	}
	if assigned > exactN {
		sort.SliceStable(order, func(a, b int) bool { return rems[order[a]] < rems[order[b]] })
		for _, i := range order {
			if assigned == exactN {
				break
			}
			if out[i].N > 1 {
				out[i].N--
				assigned--
			}
		}
	}

	var implied float64
	for _, c := range out {
		implied += float64(c.N) * c.Mean
	}
	exactSum := st.exact.Sum()
	if implied <= 0 || exactSum <= 0 {
		return out, 1
	}
	s := exactSum / implied
	for i := range out {
		out[i].Mean *= s
		out[i].StdDev *= s
	}
	return out, s
}

// naivePlan is the oracle for IncrementalPlanner.Plan: the derivation as it
// was first written, with nothing reused. Every interval's bounds come from
// refCuts, its moments are folded from the reservoir values that fall in
// it, its population and calibration come from refNameStats, every interval
// gets its own candidate pool (stream positions and their times, copied out
// of the reservoir), distinct samples are tracked in a map keyed by stream
// position, and sizes come from the allocating OptimalSizes. It reads the
// planner's reservoirs and exact statistics and changes nothing.
func naivePlan(ip *IncrementalPlanner) (plan *Plan, estimate, sampledTime float64, err error) {
	names := append([]string(nil), ip.order...)
	sort.Strings(names)

	type interval struct {
		name string
		pool []int
		vals []float64
	}
	var ivs []interval
	var statsVec []ClusterStats
	var calScale []float64
	for _, name := range names {
		st := ip.states[name]
		cuts := refCuts(name, st.res.appendTimes(nil), ip.p)
		acc := make([]stats.Online, len(cuts))
		pools := make([]interval, len(cuts))
		for i := range st.res.filled() {
			v, pos := st.res.at(i)
			j := sort.SearchFloat64s(cuts, v)
			if j >= len(cuts) {
				j = len(cuts) - 1
			}
			acc[j].Add(v)
			pools[j].pool = append(pools[j].pool, pos)
			pools[j].vals = append(pools[j].vals, v)
		}
		reservoir := make([]ClusterStats, len(cuts))
		for j := range acc {
			reservoir[j] = ClusterStats{N: acc[j].N(), Mean: acc[j].Mean(), StdDev: acc[j].StdDev()}
		}
		out, s := refNameStats(st, reservoir)
		for j := range pools {
			pools[j].name = name
			calScale = append(calScale, s)
		}
		ivs = append(ivs, pools...)
		statsVec = append(statsVec, out...)
	}

	sizes := OptimalSizes(statsVec, ip.p)
	if ip.p.SmallSampleT {
		applyTCorrection(statsVec, sizes, ip.p)
	}

	plan = &Plan{Params: ip.p}
	drawGen := rng.New(rng.Derive(ip.p.Seed, seedLabelDraw))
	distinct := make(map[int]struct{})
	for i, iv := range ivs {
		m := sizes[i]
		cs := statsVec[i]
		pc := PlanCluster{Kernel: iv.name, Population: cs.N, Mean: cs.Mean, StdDev: cs.StdDev}
		if cs.N > 0 && m > 0 {
			var picks []int // indices into the pool
			if m >= cs.N {
				m = min(cs.N, len(iv.pool))
				for k := 0; k < m; k++ {
					picks = append(picks, k)
				}
			} else {
				for k := 0; k < m; k++ {
					picks = append(picks, drawGen.Intn(len(iv.pool)))
				}
			}
			pc.Weight = calScale[i] * float64(cs.N) / float64(m)
			for _, k := range picks {
				pc.Samples = append(pc.Samples, iv.pool[k])
				estimate += pc.Weight * iv.vals[k]
				if _, ok := distinct[iv.pool[k]]; !ok {
					distinct[iv.pool[k]] = struct{}{}
					sampledTime += iv.vals[k]
				}
			}
		}
		plan.Clusters = append(plan.Clusters, pc)
	}
	if err := plan.setBound(statsVec, sizes); err != nil {
		return nil, 0, 0, err
	}
	return plan, estimate, sampledTime, nil
}

package core

import (
	"fmt"
	"math"
	"slices"

	"stemroot/internal/rng"
)

// PlanCluster is one cluster of a sampling plan — the one cluster record
// every planner returns and the public stemroot.Cluster: which invocations
// it covers, which were sampled, and the weight each sample carries in the
// weighted-sum extrapolation (N_i / m_i). A baseline planner fills only
// Samples and Weight.
type PlanCluster struct {
	// Kernel is the kernel name the cluster belongs to.
	Kernel string
	// Members are the invocation indices the cluster represents; nil in a
	// streaming plan (SampleStream, StreamPlanner), which does not keep
	// them.
	Members []int
	// Population is the number of invocations the cluster stands for:
	// len(Members) in a batch plan; in a streaming plan, the cluster's
	// share of its kernel's exact count (the shares sum to that count,
	// while Weight also carries the calibration to the kernel's exact
	// total time). Plan JSON does not store it: ReadPlanJSON sets it to
	// len(Members), so a streaming plan reads back with Population 0.
	Population int
	// Samples are the invocation indices to simulate, drawn with
	// replacement (simulate distinct ones once and reuse the result) —
	// except in a capped cluster, whose sizing reached its population:
	// that lists every member once (in a streaming plan, every member its
	// kernel's reservoir kept). len(Samples) is the cluster's m_i.
	Samples []int
	// Weight multiplies each sample's measured time in the estimate.
	Weight float64
	// Mean and StdDev summarize the cluster's profiled times.
	Mean, StdDev float64
}

// Plan is a complete STEM+ROOT sampling plan — the "sampling information"
// handed to the simulator in the paper's Figure 5 pipeline.
type Plan struct {
	Params   Params
	Clusters []PlanCluster
	// PredictedError is the theoretical bound (Eq. 4/5) for the chosen
	// sizes; it is <= Params.Epsilon by construction (up to the
	// conservative with-replacement variance of fully-sampled clusters).
	PredictedError float64
	// members and samples are the arrays a batch plan's Members and Samples
	// are windows of, which BuildPlanInto reuses when it plans into p again.
	members, samples []int
}

// BuildPlan runs the full STEM+ROOT methodology over a profiled workload:
// ROOT clusters the invocations (hierarchically, per kernel name), one
// joint KKT pass sizes every leaf cluster, and samples are drawn with
// replacement (satisfying the CLT's i.i.d. requirement, §3.5).
func BuildPlan(names []string, times []float64, p Params) (*Plan, error) {
	plan := new(Plan)
	if err := BuildPlanInto(plan, len(names), func(i int) string { return names[i] }, times, p); err != nil {
		return nil, err
	}
	return plan, nil
}

// BuildPlanInto is BuildPlan over n rows (nameOf(i), times[i]), written into
// the caller's plan: for callers whose names sit inside other records and
// that keep the plan inside a record of their own. nameOf is called once per
// row, on the calling goroutine. It reuses the clusters, member and sample
// arrays an earlier call left in *plan where they are large enough, so once
// an idle arena has grown to the profile's shape, planning again into one
// plan allocates nothing, and into a zero Plan only those three arrays.
// Every field of *plan is overwritten. On an error it holds no usable plan.
// A time that is negative, NaN or +Inf is refused, with its invocation
// named, as the IncrementalPlanner refuses it.
func BuildPlanInto(plan *Plan, n int, nameOf func(i int) string, times []float64, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i, t := range times[:n] {
		if !validTime(t) {
			return invalidTimeError(t, i)
		}
	}
	a := takeArena()
	a.backing = plan.members
	err := planFromClusters(plan, a.cluster(n, nameOf, times, p, rootWorkers(n, p.Workers)), p, a)
	putArena(a) // not deferred: an arena abandoned by a panic is not reused
	return err
}

// setBound computes the plan's predicted error from its final sample sizes,
// which it writes over sizes (one element per cluster, contents ignored).
// Execution times near MaxFloat64 overflow the variance term N²σ² (or the
// total) to +Inf or NaN; such a value is not a bound, so the plan is refused
// instead of being handed to callers that compare it against ε.
func (plan *Plan) setBound(statsVec []ClusterStats, sizes []int) error {
	for i := range plan.Clusters {
		sizes[i] = len(plan.Clusters[i].Samples)
	}
	plan.PredictedError = PredictedError(statsVec, sizes, plan.Params)
	if math.IsNaN(plan.PredictedError) || math.IsInf(plan.PredictedError, 0) {
		return fmt.Errorf("core: execution times overflow the error model (predicted error %v is not a bound)", plan.PredictedError)
	}
	return nil
}

// planFromClusters sizes the leaves jointly and draws their samples into
// plan; the statistics and size vectors are a's scratch.
func planFromClusters(plan *Plan, leaves []Cluster, p Params, a *splitArena) error {
	a.stats, a.sizes = sized(a.stats, len(leaves)), sized(a.sizes, len(leaves))
	statsVec := a.stats
	for i := range leaves {
		statsVec[i] = leaves[i].Stats
	}
	sizes := optimalSizesInto(a.sizes, statsVec, p, &a.kkt)
	if p.SmallSampleT {
		applyTCorrection(statsVec, sizes, p)
	}

	// One array holds every cluster's samples; each cluster takes a capped
	// window, so appending to one never writes into the next.
	drawn := 0
	for i, m := range sizes {
		drawn += min(m, len(leaves[i].Indices))
	}
	samples := fit(plan.samples, drawn)

	r := rng.Seeded(rng.Derive(p.Seed, 0x5a3f1e))
	*plan = Plan{Params: p, Clusters: fit(plan.Clusters, len(leaves)), members: a.backing, samples: samples}
	for i, leaf := range leaves {
		m := sizes[i]
		pc := &plan.Clusters[i]
		*pc = PlanCluster{
			Kernel:     leaf.Name,
			Members:    leaf.Indices,
			Population: leaf.Stats.N,
			Mean:       leaf.Stats.Mean,
			StdDev:     leaf.Stats.StdDev,
		}
		if m <= 0 {
			continue
		}
		all := m >= len(leaf.Indices)
		if all {
			m = len(leaf.Indices)
		}
		pc.Weight = float64(len(leaf.Indices)) / float64(m)
		pc.Samples, samples = samples[:m:m], samples[m:]
		if all {
			copy(pc.Samples, leaf.Indices) // every member once, exactly
		} else {
			for j := range pc.Samples {
				pc.Samples[j] = leaf.Indices[r.Intn(len(leaf.Indices))]
			}
		}
	}
	return plan.setBound(statsVec, sizes)
}

// Estimate extrapolates the total execution time from measured sample times:
// Σ_i weight_i · Σ_{s in samples_i} t[s] — the weighted sum of §3.1. The
// sampleTimes function maps an invocation index to its measured time in the
// sampled simulation (which may run on different hardware or a simulator).
func (p *Plan) Estimate(sampleTimes func(int) float64) float64 {
	var total float64
	for i := range p.Clusters {
		c := &p.Clusters[i]
		var sum float64
		for _, s := range c.Samples {
			sum += sampleTimes(s)
		}
		total += c.Weight * sum
	}
	return total
}

// SampledIndices returns the distinct invocations the plan requires
// simulating, in ascending order.
func (p *Plan) SampledIndices() []int {
	return p.AppendSampledIndices(make([]int, 0, p.TotalSamples()))
}

// AppendSampledIndices appends SampledIndices to dst and returns the
// extended slice, for a caller that reuses the list's array.
func (p *Plan) AppendSampledIndices(dst []int) []int {
	n := len(dst)
	for i := range p.Clusters {
		dst = append(dst, p.Clusters[i].Samples...)
	}
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

// TotalSamples returns Σ m_i, the number of (with-replacement) samples.
func (p *Plan) TotalSamples() int {
	n := 0
	for i := range p.Clusters {
		n += len(p.Clusters[i].Samples)
	}
	return n
}

// SimTimeEstimate returns τ = Σ m_i μ_i for the plan — the simulated-time
// proxy STEM minimizes.
func (p *Plan) SimTimeEstimate() float64 {
	var tau float64
	for i := range p.Clusters {
		tau += float64(len(p.Clusters[i].Samples)) * p.Clusters[i].Mean
	}
	return tau
}

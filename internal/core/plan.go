package core

import (
	"fmt"
	"math"

	"stemroot/internal/rng"
)

// PlanCluster is one cluster of a sampling plan: which invocations it
// covers, which were sampled, and the weight each sample carries in the
// weighted-sum extrapolation (N_i / m_i).
type PlanCluster struct {
	Name       string
	Indices    []int
	Samples    []int // invocation indices, sampled with replacement
	SampleSize int
	Weight     float64
	Stats      ClusterStats
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
}

// BuildPlan runs the full STEM+ROOT methodology over a profiled workload:
// ROOT clusters the invocations (hierarchically, per kernel name), one
// joint KKT pass sizes every leaf cluster, and samples are drawn with
// replacement (satisfying the CLT's i.i.d. requirement, §3.5).
func BuildPlan(names []string, times []float64, p Params) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return planFromClusters(BuildClusters(names, times, p), p)
}

// setBound computes the plan's predicted error from its final sample sizes.
// Execution times near MaxFloat64 overflow the variance term N²σ² (or the
// total) to +Inf or NaN; such a value is not a bound, so the plan is refused
// instead of being handed to callers that compare it against ε.
func (plan *Plan) setBound(statsVec []ClusterStats) error {
	sizes := make([]int, len(plan.Clusters))
	for i := range plan.Clusters {
		sizes[i] = plan.Clusters[i].SampleSize
	}
	plan.PredictedError = PredictedError(statsVec, sizes, plan.Params)
	if math.IsNaN(plan.PredictedError) || math.IsInf(plan.PredictedError, 0) {
		return fmt.Errorf("core: execution times overflow the error model (predicted error %v is not a bound)", plan.PredictedError)
	}
	return nil
}

func planFromClusters(leaves []Cluster, p Params) (*Plan, error) {
	statsVec := ClusterStatsOf(leaves)
	sizes := OptimalSizes(statsVec, p)
	if p.SmallSampleT {
		sizes = ApplyTCorrection(statsVec, sizes, p)
	}

	r := rng.New(rng.Derive(p.Seed, 0x5a3f1e))
	plan := &Plan{Params: p}
	for i, leaf := range leaves {
		m := sizes[i]
		pc := PlanCluster{
			Name:       leaf.Name,
			Indices:    leaf.Indices,
			SampleSize: m,
			Stats:      leaf.Stats,
		}
		if m > 0 {
			pc.Weight = float64(len(leaf.Indices)) / float64(m)
			if m >= len(leaf.Indices) {
				// Sampling every member: take them all once, exactly.
				pc.Samples = append([]int(nil), leaf.Indices...)
				pc.SampleSize = len(leaf.Indices)
				pc.Weight = 1
			} else {
				pc.Samples = make([]int, m)
				for j := range pc.Samples {
					pc.Samples[j] = leaf.Indices[r.Intn(len(leaf.Indices))]
				}
			}
		}
		plan.Clusters = append(plan.Clusters, pc)
	}
	if err := plan.setBound(statsVec); err != nil {
		return nil, err
	}
	return plan, nil
}

// Estimate extrapolates the total execution time from measured sample times:
// Σ_i weight_i · Σ_{s in samples_i} t[s] — the weighted sum of §3.1. The
// sampleTimes function maps an invocation index to its measured time in the
// sampled simulation (which may run on different hardware or a simulator).
func (p *Plan) Estimate(sampleTimes func(int) float64) float64 {
	var total float64
	for i := range p.Clusters {
		c := &p.Clusters[i]
		if c.SampleSize == 0 {
			continue
		}
		var sum float64
		for _, s := range c.Samples {
			sum += sampleTimes(s)
		}
		total += c.Weight * sum
	}
	return total
}

// SampledIndices returns the distinct invocation indices the plan simulates,
// in ascending order of first occurrence within clusters. Duplicates from
// with-replacement draws are collapsed: the simulator runs each distinct
// kernel once and the estimator reuses its time.
func (p *Plan) SampledIndices() []int {
	seen := make(map[int]bool)
	var out []int
	for i := range p.Clusters {
		for _, s := range p.Clusters[i].Samples {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// TotalSamples returns Σ m_i, the number of (with-replacement) samples.
func (p *Plan) TotalSamples() int {
	n := 0
	for i := range p.Clusters {
		n += p.Clusters[i].SampleSize
	}
	return n
}

// SimTimeEstimate returns τ = Σ m_i μ_i for the plan — the simulated-time
// proxy STEM minimizes.
func (p *Plan) SimTimeEstimate() float64 {
	var tau float64
	for i := range p.Clusters {
		tau += float64(p.Clusters[i].SampleSize) * p.Clusters[i].Stats.Mean
	}
	return tau
}

// Package stemroot is the public API of the STEM+ROOT reproduction — a
// fine-grained kernel-level sampling methodology for trustworthy large-scale
// GPU simulation (Chung, Na, Kang, Kim — MICRO 2025).
//
// The library turns a workload's kernel execution-time profile into a
// sampling plan with a provable error bound: ROOT hierarchically clusters
// invocations of each kernel by execution time, and STEM's statistical
// error model (Central Limit Theorem + a KKT solver) jointly picks the
// minimal per-cluster sample sizes that keep the weighted-sum estimate of
// total execution time within a target relative error ε at a chosen
// confidence level.
//
// # Quick start
//
//	names, times := loadProfile() // one entry per kernel invocation
//	plan, err := stemroot.Sample(names, times, stemroot.Options{})
//	if err != nil { ... }
//	for _, c := range plan.Clusters { simulate(c.Samples) }
//	total := plan.Estimate(func(i int) float64 { return simulatedTime(i) })
//
// Everything else — the synthetic benchmark suites, the GPU hardware timing
// model, the cycle-level simulator, the baseline sampling methods, and the
// per-table/figure experiment runners — lives in the internal packages and
// is exercised through the binaries in cmd/ and the examples/ directory.
package stemroot

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"stemroot/internal/core"
	"stemroot/internal/stats"
)

// Options configures Sample. The zero value uses the paper's defaults
// (ε = 5% at 95% confidence, k = 2 splits, seed 1).
type Options struct {
	// Epsilon is the target relative error bound in (0,1); 0 means 0.05.
	// Any other value — negative, NaN, 1 or more — is ErrEpsilon.
	Epsilon float64
	// Confidence is the confidence level in (0,1); 0 means 0.95. Any other
	// value is ErrConfidence, and so is 1 − 2⁻⁵³, the last float64 below 1:
	// its z-score is not a float64.
	Confidence float64
	// Seed drives sample selection only (ROOT's clustering depends on the
	// times alone); 0 means 1.
	Seed uint64
	// Flat disables ROOT's hierarchical splitting (STEM-only sizing over
	// per-name clusters). Mainly useful for ablation studies.
	Flat bool
	// SmallSampleT resizes clusters whose z-based sample size falls below
	// the CLT rule of thumb (m < 30) with Student-t quantiles — a rigorous
	// small-sample extension of the paper's error model.
	SmallSampleT bool
	// Parallelism is the worker count for ROOT's per-kernel clustering
	// fan-out, in Sample and in every re-plan of SampleStream and
	// StreamPlanner: 0 selects one worker per CPU, 1 forces the serial
	// path, and a negative count is ErrParallelism. The plan is
	// bit-identical for every value.
	Parallelism int
}

// The errors Sample, SampleStream and NewStreamPlanner return (match with
// errors.Is) for an option outside its domain. Only the zero value selects
// a default.
var (
	ErrEpsilon      = core.ErrEpsilon
	ErrConfidence   = core.ErrConfidence
	ErrParallelism  = core.ErrParallelism
	ErrReservoirCap = core.ErrReservoirCap // StreamOptions.ReservoirCap < 0
)

// Params resolves the options to the planner's parameters: defaults filled
// in for zero fields and flatness applied; every other value is passed on
// as given, for core.Params.Validate to refuse if it is outside the domain.
// Every planning entry point (Sample, SampleStream, StreamPlanner) and
// cmd/stemroot's -simulate validation plan from this one value, so an
// option is honoured on all of them or none.
func (o Options) Params() core.Params {
	p := core.DefaultParams()
	if o.Epsilon != 0 {
		p.Epsilon = o.Epsilon
	}
	if o.Confidence != 0 {
		p.Confidence = o.Confidence
	}
	if o.Seed != 0 {
		p.Seed = o.Seed
	}
	p.Flat = o.Flat
	p.SmallSampleT = o.SmallSampleT
	p.Workers = o.Parallelism
	return p
}

// Cluster is one leaf of the sampling plan: core's one cluster record,
// whose fields carry their own documentation.
type Cluster = core.PlanCluster

// Plan is a complete sampling plan.
type Plan struct {
	// Clusters cover every invocation exactly once.
	Clusters []Cluster
	// PredictedError is the theoretical relative error bound of the plan
	// (Eq. 4/5 of the paper), at most Epsilon except where capped clusters
	// are involved: they are still charged their with-replacement
	// variance, and when even simulating them in full would exhaust the
	// bound, every remaining cluster is sized to its whole population and
	// PredictedError can exceed Epsilon.
	PredictedError float64
	// Epsilon and Confidence echo the effective parameters.
	Epsilon, Confidence float64
}

// Sample builds a STEM+ROOT sampling plan from a kernel-level profile:
// names[i] and timesUS[i] describe invocation i of the workload in
// chronological order. Times must be finite and non-negative; the two slices
// must have equal nonzero length.
func Sample(names []string, timesUS []float64, opts Options) (*Plan, error) {
	if len(names) == 0 {
		return nil, errors.New("stemroot: empty profile")
	}
	if len(names) != len(timesUS) {
		return nil, fmt.Errorf("stemroot: %d names for %d times", len(names), len(timesUS))
	}
	cp, err := core.BuildPlan(names, timesUS, opts.Params())
	if err != nil {
		return nil, err
	}
	return fromCore(cp), nil
}

// fromCore maps a planner's plan to the public shape. Streaming plans
// carry no member indices, so their Members are nil. The clusters are the
// caller's own copy: they may be reordered (as -v does) while the stream
// planner keeps serving its cached plan.
func fromCore(cp *core.Plan) *Plan {
	return &Plan{
		Clusters:       slices.Clone(cp.Clusters),
		PredictedError: cp.PredictedError,
		Epsilon:        cp.Params.Epsilon,
		Confidence:     cp.Params.Confidence,
	}
}

// asCore views the plan's clusters as a core.Plan, the home of the
// estimator.
func (p *Plan) asCore() *core.Plan { return &core.Plan{Clusters: p.Clusters} }

// SampledIndices returns the distinct invocation indices to simulate, in
// ascending order.
func (p *Plan) SampledIndices() []int { return p.asCore().SampledIndices() }

// TotalSamples returns the with-replacement sample count Σ m_i.
func (p *Plan) TotalSamples() int { return p.asCore().TotalSamples() }

// Estimate extrapolates the workload's total execution time from measured
// sample times: timeOf(i) must return the measured time of invocation i
// (only sampled indices are queried). The estimate's relative error is
// within Epsilon of the true total at the configured confidence, provided
// timeOf comes from the same machine distribution the plan was built from.
func (p *Plan) Estimate(timeOf func(int) float64) float64 { return p.asCore().Estimate(timeOf) }

// SampleSize implements the paper's Eq. (3) for a single cluster: the
// minimal number of samples keeping the CLT error of the mean-based total
// estimate within epsilon at the given confidence, for a population of n
// observations with the given mean and standard deviation. A negative n, a
// mean or stdDev that is not finite, and a negative stdDev are refused with
// an error naming the argument: no sample size follows from them.
func SampleSize(n int, mean, stdDev, epsilon, confidence float64) (int, error) {
	switch {
	case n < 0:
		return 0, fmt.Errorf("stemroot: negative population n = %d", n)
	case math.IsNaN(mean) || math.IsInf(mean, 0):
		return 0, fmt.Errorf("stemroot: non-finite mean %v", mean)
	case math.IsNaN(stdDev) || math.IsInf(stdDev, 0):
		return 0, fmt.Errorf("stemroot: non-finite stdDev %v", stdDev)
	case stdDev < 0:
		return 0, fmt.Errorf("stemroot: negative stdDev %v", stdDev)
	}
	p := core.DefaultParams()
	p.Epsilon = epsilon
	p.Confidence = confidence
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return core.SampleSize(core.ClusterStats{N: n, Mean: mean, StdDev: stdDev}, p), nil
}

// ZScore exposes the two-sided standard score for a confidence level
// (1.96 at 95%), as used throughout the error model.
func ZScore(confidence float64) (float64, error) {
	return stats.ZScore(confidence)
}

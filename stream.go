package stemroot

import (
	"stemroot/internal/core"
)

// Scanner streams (kernel name, execution time µs) pairs in invocation
// order. SampleStream calls Scan once, so a one-shot source such as stdin
// works; it lets SampleStream plan over profiles too large to hold in
// memory (the paper's large-scale traces reach tens of millions of
// invocations).
type Scanner interface {
	Scan(yield func(name string, timeUS float64) bool) error
}

// StreamOptions tunes the memory/accuracy tradeoff of SampleStream and
// StreamPlanner.
type StreamOptions struct {
	// ReservoirCap bounds the per-kernel time sample used for clustering;
	// 0 means 8192, and a negative cap is ErrReservoirCap. Peak memory is
	// independent of trace length: O(#names × ReservoirCap) for the
	// reservoirs, O(ReservoirCap) of re-plan scratch per worker
	// (Options.Parallelism), and the plan.
	ReservoirCap int
}

// SampleStream is Sample for out-of-core profiles: one scan feeds a
// StreamPlanner, whose final plan it returns. Memory is bounded by the
// reservoirs (see StreamOptions). Cluster statistics are exact for every
// kernel whose invocations fit its reservoir; beyond that they are
// reservoir estimates calibrated to the kernel's exact count and total
// time. Members are not materialized; each cluster's Population counts them.
func SampleStream(src Scanner, opts Options, sopts StreamOptions) (*Plan, error) {
	sp, err := NewStreamPlanner(opts, sopts)
	if err != nil {
		return nil, err
	}
	if err := src.Scan(func(name string, timeUS float64) bool {
		sp.Add(name, timeUS)
		return true
	}); err != nil {
		return nil, err
	}
	return sp.Plan()
}

// StreamPlanner maintains a sampling plan over a live profile stream in a
// single pass and bounded memory — the service-mode counterpart of
// SampleStream. Feed invocations with Add (or AddBytes on the zero-alloc
// hot path), then read rolling results with Snapshot or CurrentPlan; plans
// are re-derived when the stream has doubled since the last re-plan, or
// when some kernel's mean has moved by more than 25 %, so per-invocation
// cost stays O(1). A StreamPlanner must be confined to one goroutine.
type StreamPlanner struct {
	ip *core.IncrementalPlanner
}

// NewStreamPlanner validates the options and returns an empty planner.
func NewStreamPlanner(opts Options, sopts StreamOptions) (*StreamPlanner, error) {
	ip, err := core.NewIncrementalPlanner(opts.Params(), core.StreamOptions(sopts))
	if err != nil {
		return nil, err
	}
	return &StreamPlanner{ip: ip}, nil
}

// Add ingests one invocation. A time that is negative, NaN or infinite is
// remembered, and every later CurrentPlan, Plan and Snapshot fails with an
// error naming that invocation.
func (sp *StreamPlanner) Add(name string, timeUS float64) { sp.ip.Add(name, timeUS) }

// AddBytes ingests one invocation with a []byte kernel name, allocating
// only the first time a name is seen (interned in a byte-keyed symbol
// table) — the steady state is allocation-free.
func (sp *StreamPlanner) AddBytes(name []byte, timeUS float64) { sp.ip.AddBytes(name, timeUS) }

// Count returns the number of invocations ingested.
func (sp *StreamPlanner) Count() int { return sp.ip.Count() }

// Kernels returns the number of distinct kernel names seen.
func (sp *StreamPlanner) Kernels() int { return sp.ip.Names() }

// TotalTime returns the exact (compensated) sum of ingested times in µs.
func (sp *StreamPlanner) TotalTime() float64 { return sp.ip.TotalTime() }

// Replans returns how many times the plan has been re-derived.
func (sp *StreamPlanner) Replans() int { return sp.ip.Replans() }

// CurrentPlan returns the plan for everything ingested so far, re-deriving
// it only when the amortized schedule says the cached one is stale.
// Cluster sample indices are invocation positions in the stream (0-based).
// A returned plan is never changed by later ingestion or re-plans.
func (sp *StreamPlanner) CurrentPlan() (*Plan, error) {
	cp, err := sp.ip.CurrentPlan()
	if err != nil {
		return nil, err
	}
	return fromCore(cp), nil
}

// Plan forces a fresh re-derivation regardless of the schedule. The result
// is deterministic in (stream, seed): forcing extra re-plans never changes
// the final plan.
func (sp *StreamPlanner) Plan() (*Plan, error) {
	cp, err := sp.ip.Plan()
	if err != nil {
		return nil, err
	}
	return fromCore(cp), nil
}

// Snapshot is a rolling summary of the stream and its current plan.
type Snapshot struct {
	// Invocations and Kernels describe the stream so far.
	Invocations int
	Kernels     int
	// TotalTimeUS is the exact profiled total; ExtrapolatedUS is the
	// plan's estimate of it from the drawn samples alone — their relative
	// gap is a live accuracy signal.
	TotalTimeUS    float64
	ExtrapolatedUS float64
	// Clusters, TotalSamples, DistinctTimeUS and PredictedError summarize
	// the current plan.
	Clusters       int
	TotalSamples   int
	DistinctTimeUS float64
	PredictedError float64
	// Replans counts plan re-derivations since the start of the stream.
	Replans int
}

// Snapshot returns the rolling summary, re-deriving the plan only if the
// amortized schedule requires it.
func (sp *StreamPlanner) Snapshot() (Snapshot, error) {
	cp, err := sp.ip.CurrentPlan()
	if err != nil {
		return Snapshot{}, err
	}
	// The plan's estimate extrapolates the total at plan time; scale it
	// forward to the current invocation count so the snapshot gap tracks
	// both sampling error and post-plan drift.
	extrap := sp.ip.LastEstimate()
	if at := sp.ip.PlanAt(); at > 0 {
		extrap *= float64(sp.ip.Count()) / float64(at)
	}
	return Snapshot{
		Invocations:    sp.ip.Count(),
		Kernels:        sp.ip.Names(),
		TotalTimeUS:    sp.ip.TotalTime(),
		ExtrapolatedUS: extrap,
		Clusters:       len(cp.Clusters),
		TotalSamples:   cp.TotalSamples(),
		DistinctTimeUS: sp.ip.LastSampledTime(),
		PredictedError: cp.PredictedError,
		Replans:        sp.ip.Replans(),
	}, nil
}

package metrics

import "sync/atomic"

// BarrierSample is one kernel's epoch-barrier accounting from the parallel
// intra-kernel engine: how many epochs ran, how the wall clock split between
// the shard-compute phase and the barrier merge, and how much work the merge
// replayed against the shared L2. The gpu engine folds one sample into the
// session's BarrierCollector per RunKernelPar call.
type BarrierSample struct {
	Epochs    int64
	ComputeNS int64
	MergeNS   int64
	Replayed  int64 // shared-L2 accesses replayed at barriers
	Misses    int64 // of those, L2 misses (the DRAM-queue fold's input)
}

// BarrierCollector accumulates BarrierSamples across kernels, segments, and
// workers. All fields are summed atomically so one collector can be shared
// by every worker of a simulation run; sums of deterministic per-kernel
// counts are order-insensitive, so Replayed/Misses/Epochs/Kernels are
// bit-identical at any worker count (the nanosecond fields are wall-clock
// measurements and of course are not).
//
// The collector is pure observability: installing one on a Simulator
// changes no simulation result and no cache key. A nil *BarrierCollector is
// valid everywhere and disables collection (including the per-phase
// time.Now calls in the epoch loop).
type BarrierCollector struct {
	kernels   atomic.Int64
	epochs    atomic.Int64
	computeNS atomic.Int64
	mergeNS   atomic.Int64
	replayed  atomic.Int64
	misses    atomic.Int64
}

// AddKernel folds one kernel's sample into the collector.
func (c *BarrierCollector) AddKernel(s BarrierSample) {
	c.kernels.Add(1)
	c.epochs.Add(s.Epochs)
	c.computeNS.Add(s.ComputeNS)
	c.mergeNS.Add(s.MergeNS)
	c.replayed.Add(s.Replayed)
	c.misses.Add(s.Misses)
}

// BarrierStats is a point-in-time snapshot of a BarrierCollector.
type BarrierStats struct {
	Kernels   int64
	Epochs    int64
	ComputeNS int64
	MergeNS   int64
	Replayed  int64
	Misses    int64
}

// Snapshot reads the collector's current totals.
func (c *BarrierCollector) Snapshot() BarrierStats {
	return BarrierStats{
		Kernels:   c.kernels.Load(),
		Epochs:    c.epochs.Load(),
		ComputeNS: c.computeNS.Load(),
		MergeNS:   c.mergeNS.Load(),
		Replayed:  c.replayed.Load(),
		Misses:    c.misses.Load(),
	}
}

// MergeSharePct is the merge phase's share of the total barrier-loop wall
// clock, in percent — the measured Amdahl share the ROADMAP item asks for.
// Zero when nothing was timed.
func (s BarrierStats) MergeSharePct() float64 {
	total := s.ComputeNS + s.MergeNS
	if total <= 0 {
		return 0
	}
	return 100 * float64(s.MergeNS) / float64(total)
}

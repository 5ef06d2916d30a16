// Package multigpu simulates Chakra-style execution traces on a multi-GPU
// system: per-rank compute streams, a communication stream per rank, and a
// ring-collective timing model over the interconnect. Combined with
// internal/etsample it realizes the paper's §6.2 multi-GPU future-work
// direction end to end.
//
// Simulate allocates all scheduling state per call and never mutates the
// graph, so concurrent simulations of the same or different graphs are safe.
package multigpu

import (
	"errors"
	"math"

	"stemroot/internal/chakra"
)

// The interconnect is NVLink-class: ~200 GB/s effective per direction, and
// 5 µs per hop of a collective step.
const (
	linkBytesPerUS = 200e3
	linkLatencyUS  = 5
)

// CollectiveTimeUS returns the duration of a collective of the given kind
// and payload over ranks devices, using the standard ring algorithm cost:
// 2(R-1)/R · bytes/bw for all-reduce, (R-1)/R · bytes/bw for all-gather,
// plus per-step latency.
func CollectiveTimeUS(kind chakra.NodeKind, bytes int64, ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	r := float64(ranks)
	steps := 2 * (r - 1)
	volume := 2 * (r - 1) / r * float64(bytes)
	if kind == chakra.AllGather {
		steps = r - 1
		volume = (r - 1) / r * float64(bytes)
	}
	return volume/linkBytesPerUS + steps*linkLatencyUS
}

// Result reports a multi-GPU simulation.
type Result struct {
	// TotalUS is the end-to-end makespan.
	TotalUS float64
	// NodeEndUS[i] is node i's completion time.
	NodeEndUS []float64
	// ComputeBusyUS[rank] and CommBusyUS total the stream occupancies.
	ComputeBusyUS []float64
	CommBusyUS    float64
}

// Simulate executes the trace. nodeTimeUS supplies each compute node's
// duration (from the hardware model, a cycle-level simulator, or a sampled
// estimate); collective durations come from CollectiveTimeUS. Each rank runs its
// compute nodes serially on a compute stream; collectives serialize on a
// global communication stream but overlap with compute — the structure
// that makes backward/all-reduce overlap matter.
func Simulate(g *chakra.Graph, nodeTimeUS func(int) float64) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		NodeEndUS:     make([]float64, len(g.Nodes)),
		ComputeBusyUS: make([]float64, g.Ranks),
	}
	computeFree := make([]float64, g.Ranks)
	commFree := 0.0

	for i := range g.Nodes {
		n := &g.Nodes[i]
		ready := 0.0
		for _, d := range n.Deps {
			if res.NodeEndUS[d] > ready {
				ready = res.NodeEndUS[d]
			}
		}
		switch {
		case n.Kind == chakra.Compute:
			start := math.Max(ready, computeFree[n.Rank])
			dur := nodeTimeUS(i)
			if dur < 0 {
				return nil, errors.New("multigpu: negative node time")
			}
			end := start + dur
			computeFree[n.Rank] = end
			res.ComputeBusyUS[n.Rank] += dur
			res.NodeEndUS[i] = end
		default:
			start := math.Max(ready, commFree)
			dur := CollectiveTimeUS(n.Kind, n.CommBytes, g.Ranks)
			end := start + dur
			commFree = end
			res.CommBusyUS += dur
			res.NodeEndUS[i] = end
		}
		if res.NodeEndUS[i] > res.TotalUS {
			res.TotalUS = res.NodeEndUS[i]
		}
	}
	return res, nil
}

// Multi-GPU execution-trace sampling: the paper's §6.2 future-work
// direction, implemented end to end. A Chakra-style data-parallel training
// trace (per-rank compute kernels, per-layer gradient all-reduce buckets
// with computation-communication overlap) is simulated on a multi-GPU
// system; STEM clusters and samples the compute nodes, unsampled nodes
// inherit their cluster's measured mean, and the DAG replay estimates the
// training-step makespan from a fraction of the detailed simulations.
//
// Run with: go run ./examples/multigpu
package main

import (
	"fmt"
	"log"

	"stemroot/internal/chakra"
	"stemroot/internal/core"
	"stemroot/internal/etsample"
	"stemroot/internal/hwmodel"
	"stemroot/internal/multigpu"
)

func main() {
	log.SetFlags(0)

	g, err := chakra.GenerateTraining(chakra.TrainingConfig{
		Ranks: 8, Steps: 10, Layers: 16,
		BucketBytes: 128 << 20, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d ranks, %d nodes (%d compute, %d collectives), critical path %d\n",
		g.Ranks, len(g.Nodes), len(g.ComputeNodes()), len(g.CommNodes()), g.CriticalPathLen())

	// Ground-truth node times from the H100 model.
	model := hwmodel.New(hwmodel.H100, 11)
	times := make([]float64, len(g.Nodes))
	for i := range g.Nodes {
		if g.Nodes[i].Kind == chakra.Compute {
			times[i] = model.Time(g.Nodes[i].Inv)
		}
	}

	truth, err := multigpu.Simulate(g, func(id int) float64 { return times[id] })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full simulation:    makespan %.1f ms (comm busy %.1f ms)\n",
		truth.TotalUS/1000, truth.CommBusyUS/1000)

	plan, err := etsample.BuildGraphPlan(g, times, core.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	out, err := plan.Evaluate(g, times)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled simulation: makespan %.1f ms from %d of %d compute nodes\n",
		out.EstimateUS/1000, out.SampledNodes, out.ComputeNodes)
	fmt.Printf("error: %.3f%%   detailed-simulation reduction: %.1fx\n",
		out.ErrorPct, out.Speedup)
}

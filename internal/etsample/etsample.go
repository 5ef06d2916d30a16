// Package etsample extends STEM+ROOT to DAG-structured execution traces —
// the paper's §6.2 proposal of "node sampling on DAG-style ETs".
//
// The key difference from flat kernel-level sampling: a DAG's total time is
// not a weighted sum of node times (dependencies and overlap shape the
// makespan), so instead of extrapolating a scalar, the sampler estimates a
// *per-node* time: ROOT clusters compute nodes by profiled execution time
// within each kernel name, STEM sizes the per-cluster samples, and every
// unsampled node inherits its cluster's sampled mean. Replaying the DAG
// with estimated node times yields the estimated makespan; only the sampled
// nodes ever need detailed simulation.
//
// Functions here are pure (per-call state only, RNGs derived from explicit
// seeds) and safe for concurrent use on distinct or shared read-only graphs.
package etsample

import (
	"errors"

	"stemroot/internal/chakra"
	"stemroot/internal/core"
	"stemroot/internal/multigpu"
	"stemroot/internal/sampling"
)

// GraphPlan is a sampling plan over a trace's compute nodes: its clusters
// partition the compute nodes, and their members and samples are node IDs.
type GraphPlan struct {
	core.Plan
	// nodeCluster maps node ID -> cluster index.
	nodeCluster map[int]int
}

// BuildGraphPlan clusters and sizes the trace's compute nodes from their
// profiled times (profUS[id] for every node ID; comm entries are ignored).
func BuildGraphPlan(g *chakra.Graph, profUS []float64, p core.Params) (*GraphPlan, error) {
	if len(profUS) != len(g.Nodes) {
		return nil, errors.New("etsample: profile length mismatch")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	computeIDs := g.ComputeNodes()
	if len(computeIDs) == 0 {
		return nil, errors.New("etsample: trace has no compute nodes")
	}

	// Flatten compute nodes for the core machinery: names and times indexed
	// by position in computeIDs.
	names := make([]string, len(computeIDs))
	times := make([]float64, len(computeIDs))
	for j, id := range computeIDs {
		names[j] = g.Nodes[id].Name
		times[j] = profUS[id]
	}
	cp, err := core.BuildPlan(names, times, p)
	if err != nil {
		return nil, err
	}

	// Translate flattened indices back to node IDs, in the plan's own
	// arrays: the batch planner allocates them fresh per call.
	plan := &GraphPlan{Plan: *cp, nodeCluster: make(map[int]int, len(computeIDs))}
	for ci := range plan.Clusters {
		c := &plan.Clusters[ci]
		for k, fi := range c.Members {
			c.Members[k] = computeIDs[fi]
			plan.nodeCluster[c.Members[k]] = ci
		}
		for k, fi := range c.Samples {
			c.Samples[k] = computeIDs[fi]
		}
	}
	return plan, nil
}

// NodeTimes builds the per-node estimated time function: sampled clusters
// contribute the mean of their measured samples; measure(id) supplies the
// detailed-simulation time of sampled node id. Communication nodes return
// 0 (their cost comes from the collective model during replay).
func (p *GraphPlan) NodeTimes(g *chakra.Graph, measure func(int) float64) (func(int) float64, error) {
	clusterMean := make([]float64, len(p.Clusters))
	for i := range p.Clusters {
		c := &p.Clusters[i]
		if len(c.Samples) == 0 {
			return nil, errors.New("etsample: unsampled cluster")
		}
		var sum float64
		for _, s := range c.Samples {
			sum += measure(s)
		}
		clusterMean[i] = sum / float64(len(c.Samples))
	}
	return func(id int) float64 {
		ci, ok := p.nodeCluster[id]
		if !ok {
			return 0
		}
		return clusterMean[ci]
	}, nil
}

// Outcome reports a sampled multi-GPU simulation.
type Outcome struct {
	TruthUS, EstimateUS float64
	ErrorPct            float64
	// ComputeNodes and SampledNodes count the detailed-simulation savings.
	ComputeNodes, SampledNodes int
	Speedup                    float64
}

// Evaluate replays the trace with estimated node times and scores the
// makespan against ground truth (trueUS[id] per node). measure defaults to
// looking up trueUS, modelling a detailed simulation of the sampled nodes.
func (p *GraphPlan) Evaluate(g *chakra.Graph, trueUS []float64) (*Outcome, error) {
	truth, err := multigpu.Simulate(g, func(id int) float64 { return trueUS[id] })
	if err != nil {
		return nil, err
	}
	nodeTime, err := p.NodeTimes(g, func(id int) float64 { return trueUS[id] })
	if err != nil {
		return nil, err
	}
	est, err := multigpu.Simulate(g, nodeTime)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		TruthUS:      truth.TotalUS,
		EstimateUS:   est.TotalUS,
		ComputeNodes: len(g.ComputeNodes()),
		SampledNodes: len(p.SampledIndices()),
	}
	out.ErrorPct, _ = sampling.Score(out.EstimateUS, out.TruthUS, 0)
	if out.SampledNodes > 0 {
		out.Speedup = float64(out.ComputeNodes) / float64(out.SampledNodes)
	}
	return out, nil
}

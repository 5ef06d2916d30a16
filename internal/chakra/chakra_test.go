package chakra

import (
	"testing"

	"stemroot/internal/trace"
)

func TestGenerateTrainingStructure(t *testing.T) {
	cfg := TrainingConfig{Ranks: 4, Steps: 8, Layers: 12, BucketBytes: 64 << 20, Seed: 1}
	g, err := GenerateTraining(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per step: layers*ranks fwd + layers*ranks bwd + layers allreduce +
	// ranks optimizer.
	wantCompute := cfg.Steps * (2*cfg.Layers*cfg.Ranks + cfg.Ranks)
	wantComm := cfg.Steps * cfg.Layers
	if got := len(g.ComputeNodes()); got != wantCompute {
		t.Fatalf("compute nodes = %d, want %d", got, wantCompute)
	}
	if got := len(g.CommNodes()); got != wantComm {
		t.Fatalf("comm nodes = %d, want %d", got, wantComm)
	}
}

func TestGenerateTrainingDependencies(t *testing.T) {
	g, err := GenerateTraining(TrainingConfig{Ranks: 2, Steps: 1, Layers: 3, BucketBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every all-reduce depends on one bwd kernel per rank.
	for _, id := range g.CommNodes() {
		n := &g.Nodes[id]
		if len(n.Deps) != g.Ranks {
			t.Fatalf("allreduce %d has %d deps, want %d", id, len(n.Deps), g.Ranks)
		}
		ranks := map[int]bool{}
		for _, d := range n.Deps {
			dep := &g.Nodes[d]
			if dep.Kind != Compute {
				t.Fatal("allreduce depends on non-compute node")
			}
			ranks[dep.Rank] = true
		}
		if len(ranks) != g.Ranks {
			t.Fatal("allreduce does not join all ranks")
		}
	}
	// Optimizer steps gate on every bucket of the step.
	last := &g.Nodes[len(g.Nodes)-1]
	if last.Name != "optimizer_step" {
		t.Fatalf("last node is %q", last.Name)
	}
	if len(last.Deps) < 3 {
		t.Fatalf("optimizer has %d deps", len(last.Deps))
	}
}

func TestGenerateTrainingInvalidConfig(t *testing.T) {
	if _, err := GenerateTraining(TrainingConfig{}); err == nil {
		t.Fatal("expected error for zero config")
	}
}

func TestValidateCatchesBadGraphs(t *testing.T) {
	inv := &trace.Invocation{Name: "k"}
	cases := []Graph{
		{Ranks: 0},
		{Ranks: 1, Nodes: []Node{{ID: 5, Kind: Compute, Rank: 0, Inv: inv}}},
		{Ranks: 1, Nodes: []Node{{ID: 0, Kind: Compute, Rank: 3, Inv: inv}}},
		{Ranks: 1, Nodes: []Node{{ID: 0, Kind: Compute, Rank: 0}}},                           // nil Inv
		{Ranks: 1, Nodes: []Node{{ID: 0, Kind: AllReduce, Rank: -1}}},                        // zero bytes
		{Ranks: 1, Nodes: []Node{{ID: 0, Kind: Compute, Rank: 0, Inv: inv, Deps: []int{0}}}}, // self-dep
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestCriticalPathLen(t *testing.T) {
	inv := &trace.Invocation{Name: "k"}
	g := Graph{Ranks: 1, Nodes: []Node{
		{ID: 0, Kind: Compute, Rank: 0, Inv: inv},
		{ID: 1, Kind: Compute, Rank: 0, Inv: inv, Deps: []int{0}},
		{ID: 2, Kind: Compute, Rank: 0, Inv: inv, Deps: []int{0}},
		{ID: 3, Kind: Compute, Rank: 0, Inv: inv, Deps: []int{1, 2}},
	}}
	if got := g.CriticalPathLen(); got != 3 {
		t.Fatalf("critical path = %d, want 3", got)
	}
}

func TestNodeKindString(t *testing.T) {
	if Compute.String() != "compute" || AllReduce.String() != "allreduce" ||
		AllGather.String() != "allgather" || NodeKind(99).String() != "unknown" {
		t.Fatal("kind strings wrong")
	}
	if Compute.IsComm() || !AllReduce.IsComm() {
		t.Fatal("IsComm wrong")
	}
}

package etsample

import (
	"testing"

	"stemroot/internal/chakra"
	"stemroot/internal/core"
	"stemroot/internal/hwmodel"
	"stemroot/internal/multigpu"
)

// trainingFixture builds a training trace and hardware-model node times.
func trainingFixture(t testing.TB, ranks, steps, layers int) (*chakra.Graph, []float64) {
	t.Helper()
	g, err := chakra.GenerateTraining(chakra.TrainingConfig{
		Ranks: ranks, Steps: steps, Layers: layers,
		BucketBytes: 64 << 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := hwmodel.New(hwmodel.H100, 3)
	times := make([]float64, len(g.Nodes))
	for i := range g.Nodes {
		if g.Nodes[i].Kind == chakra.Compute {
			times[i] = model.Time(g.Nodes[i].Inv)
		}
	}
	return g, times
}

func TestBuildGraphPlanCoversComputeNodes(t *testing.T) {
	g, times := trainingFixture(t, 4, 6, 8)
	plan, err := BuildGraphPlan(g, times, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, c := range plan.Clusters {
		for _, id := range c.Members {
			if g.Nodes[id].Kind != chakra.Compute {
				t.Fatal("cluster contains a comm node")
			}
			if seen[id] {
				t.Fatal("node in two clusters")
			}
			seen[id] = true
		}
	}
	if len(seen) != len(g.ComputeNodes()) {
		t.Fatalf("clusters cover %d of %d compute nodes", len(seen), len(g.ComputeNodes()))
	}
}

func TestGraphPlanAccuracyAndSavings(t *testing.T) {
	g, times := trainingFixture(t, 4, 6, 8)
	plan, err := BuildGraphPlan(g, times, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Evaluate(g, times)
	if err != nil {
		t.Fatal(err)
	}
	if out.ErrorPct > 5 {
		t.Fatalf("makespan error %v%% exceeds the 5%% bound", out.ErrorPct)
	}
	if out.Speedup < 3 {
		t.Fatalf("node-sampling speedup only %vx", out.Speedup)
	}
	if out.SampledNodes >= out.ComputeNodes {
		t.Fatal("no sampling happened")
	}
}

func TestGraphPlanBeatsNaiveSingleSample(t *testing.T) {
	// A strawman that uses one global mean for every node must do worse
	// than per-cluster means on a heterogeneous trace.
	g, times := trainingFixture(t, 2, 4, 6)
	plan, err := BuildGraphPlan(g, times, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Evaluate(g, times)
	if err != nil {
		t.Fatal(err)
	}

	truth, err := multigpu.Simulate(g, func(id int) float64 { return times[id] })
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	comp := g.ComputeNodes()
	for _, id := range comp {
		sum += times[id]
	}
	mean := sum / float64(len(comp))
	naive, err := multigpu.Simulate(g, func(id int) float64 {
		if g.Nodes[id].Kind != chakra.Compute {
			return 0
		}
		return mean
	})
	if err != nil {
		t.Fatal(err)
	}
	naiveErr := abs(naive.TotalUS-truth.TotalUS) / truth.TotalUS * 100
	if out.ErrorPct >= naiveErr {
		t.Fatalf("STEM node sampling (%v%%) should beat global mean (%v%%)", out.ErrorPct, naiveErr)
	}
}

func TestBuildGraphPlanErrors(t *testing.T) {
	g, times := trainingFixture(t, 2, 1, 2)
	if _, err := BuildGraphPlan(g, times[:1], core.DefaultParams()); err == nil {
		t.Fatal("expected length mismatch error")
	}
	bad := core.DefaultParams()
	bad.Epsilon = 0
	if _, err := BuildGraphPlan(g, times, bad); err == nil {
		t.Fatal("expected param validation error")
	}
	empty := &chakra.Graph{Ranks: 1}
	if _, err := BuildGraphPlan(empty, nil, core.DefaultParams()); err == nil {
		t.Fatal("expected no-compute-nodes error")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

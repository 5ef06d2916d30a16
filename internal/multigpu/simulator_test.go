package multigpu

import (
	"math"
	"testing"

	"stemroot/internal/chakra"
	"stemroot/internal/trace"
)

func inv() *trace.Invocation { return &trace.Invocation{Name: "k"} }

func TestSerialChain(t *testing.T) {
	g := &chakra.Graph{Ranks: 1, Nodes: []chakra.Node{
		{ID: 0, Kind: chakra.Compute, Rank: 0, Inv: inv()},
		{ID: 1, Kind: chakra.Compute, Rank: 0, Inv: inv(), Deps: []int{0}},
		{ID: 2, Kind: chakra.Compute, Rank: 0, Inv: inv(), Deps: []int{1}},
	}}
	res, err := Simulate(g, func(int) float64 { return 10 })
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalUS != 30 {
		t.Fatalf("serial chain total = %v, want 30", res.TotalUS)
	}
}

func TestIndependentRanksOverlap(t *testing.T) {
	g := &chakra.Graph{Ranks: 2, Nodes: []chakra.Node{
		{ID: 0, Kind: chakra.Compute, Rank: 0, Inv: inv()},
		{ID: 1, Kind: chakra.Compute, Rank: 1, Inv: inv()},
	}}
	res, err := Simulate(g, func(int) float64 { return 25 })
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalUS != 25 {
		t.Fatalf("parallel ranks total = %v, want 25", res.TotalUS)
	}
}

func TestAllReduceJoinsLaggard(t *testing.T) {
	// Rank 1's compute takes longer; the collective must wait for it.
	g := &chakra.Graph{Ranks: 2, Nodes: []chakra.Node{
		{ID: 0, Kind: chakra.Compute, Rank: 0, Inv: inv()},
		{ID: 1, Kind: chakra.Compute, Rank: 1, Inv: inv()},
		{ID: 2, Kind: chakra.AllReduce, Rank: -1, CommBytes: 1 << 20, Deps: []int{0, 1}},
	}}
	res, err := Simulate(g, func(id int) float64 {
		if id == 1 {
			return 100
		}
		return 10
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 100 + CollectiveTimeUS(chakra.AllReduce, 1<<20, 2)
	if math.Abs(res.TotalUS-want) > 1e-9 {
		t.Fatalf("total = %v, want %v", res.TotalUS, want)
	}
}

func TestComputeCommOverlap(t *testing.T) {
	// After bwd0, an all-reduce overlaps with bwd1: total should be less
	// than the serial sum.
	commBytes := int64(128 << 20)
	commTime := CollectiveTimeUS(chakra.AllReduce, commBytes, 2)
	g := &chakra.Graph{Ranks: 2, Nodes: []chakra.Node{
		{ID: 0, Kind: chakra.Compute, Rank: 0, Inv: inv()},
		{ID: 1, Kind: chakra.Compute, Rank: 1, Inv: inv()},
		{ID: 2, Kind: chakra.AllReduce, Rank: -1, CommBytes: commBytes, Deps: []int{0, 1}},
		// Next layer's backward does NOT depend on the all-reduce.
		{ID: 3, Kind: chakra.Compute, Rank: 0, Inv: inv(), Deps: []int{0}},
		{ID: 4, Kind: chakra.Compute, Rank: 1, Inv: inv(), Deps: []int{1}},
		// Optimizer waits for both.
		{ID: 5, Kind: chakra.Compute, Rank: 0, Inv: inv(), Deps: []int{2, 3}},
	}}
	computeDur := commTime * 0.9 // overlap window
	res, err := Simulate(g, func(id int) float64 {
		if id == 5 {
			return 1
		}
		return computeDur
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := computeDur + commTime + computeDur + 1
	if res.TotalUS >= serial-1e-9 {
		t.Fatalf("no overlap: total %v >= serial %v", res.TotalUS, serial)
	}
	// Fully overlapped lower bound: compute + comm tail + optimizer.
	lower := computeDur + commTime + 1
	if res.TotalUS < lower-1e-9 {
		t.Fatalf("total %v below physical lower bound %v", res.TotalUS, lower)
	}
}

func TestCollectiveTimeModel(t *testing.T) {
	ar4 := CollectiveTimeUS(chakra.AllReduce, 100<<20, 4)
	ag4 := CollectiveTimeUS(chakra.AllGather, 100<<20, 4)
	if ar4 <= ag4 {
		t.Fatalf("all-reduce (%v) should cost more than all-gather (%v)", ar4, ag4)
	}
	if CollectiveTimeUS(chakra.AllReduce, 100<<20, 1) != 0 {
		t.Fatal("single-rank collective should be free")
	}
	ar8 := CollectiveTimeUS(chakra.AllReduce, 100<<20, 8)
	if ar8 <= ar4 {
		t.Fatalf("more ranks should cost more: %v vs %v", ar8, ar4)
	}
}

func TestSimulateErrors(t *testing.T) {
	bad := &chakra.Graph{Ranks: 0}
	if _, err := Simulate(bad, func(int) float64 { return 1 }); err == nil {
		t.Fatal("expected validation error")
	}
	g := &chakra.Graph{Ranks: 1, Nodes: []chakra.Node{
		{ID: 0, Kind: chakra.Compute, Rank: 0, Inv: inv()},
	}}
	if _, err := Simulate(g, func(int) float64 { return -1 }); err == nil {
		t.Fatal("expected negative-time error")
	}
}

func TestEndToEndTrainingTrace(t *testing.T) {
	g, err := chakra.GenerateTraining(chakra.TrainingConfig{
		Ranks: 4, Steps: 2, Layers: 4, BucketBytes: 32 << 20, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(g, func(id int) float64 {
		if g.Nodes[id].Kind != chakra.Compute {
			return 0
		}
		return 50
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalUS <= 0 {
		t.Fatal("zero makespan")
	}
	// Ranks are symmetric: busy times equal.
	for r := 1; r < g.Ranks; r++ {
		if res.ComputeBusyUS[r] != res.ComputeBusyUS[0] {
			t.Fatalf("asymmetric busy times: %v", res.ComputeBusyUS)
		}
	}
	if res.CommBusyUS <= 0 {
		t.Fatal("no communication time")
	}
}

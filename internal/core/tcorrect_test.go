package core

import (
	"slices"
	"testing"
)

func TestTCorrectionInflatesSmallSizes(t *testing.T) {
	p := defaultP()
	clusters := []ClusterStats{
		{N: 10000, Mean: 10, StdDev: 1},  // z-based m small
		{N: 10000, Mean: 10, StdDev: 20}, // z-based m large (>30)
	}
	sizes := OptimalSizes(clusters, p)
	corrected := slices.Clone(sizes)
	applyTCorrection(clusters, corrected, p)
	if sizes[0] >= smallSampleThreshold {
		t.Skipf("test premise broken: m0 = %d", sizes[0])
	}
	if corrected[0] < sizes[0] {
		t.Fatalf("correction shrank m: %d -> %d", sizes[0], corrected[0])
	}
	if sizes[1] >= smallSampleThreshold && corrected[1] != sizes[1] {
		t.Fatalf("large cluster should be untouched: %d -> %d", sizes[1], corrected[1])
	}
}

func TestTCorrectionRespectsPopulation(t *testing.T) {
	p := defaultP()
	clusters := []ClusterStats{{N: 4, Mean: 10, StdDev: 9}}
	sizes := []int{3}
	corrected := slices.Clone(sizes)
	applyTCorrection(clusters, corrected, p)
	if corrected[0] > 4 {
		t.Fatalf("corrected size %d exceeds population", corrected[0])
	}
}

func TestTCorrectionSkipsDegenerate(t *testing.T) {
	p := defaultP()
	clusters := []ClusterStats{
		{N: 100, Mean: 0, StdDev: 0},
		{N: 100, Mean: 5, StdDev: 0},
	}
	sizes := []int{1, 1}
	corrected := slices.Clone(sizes)
	applyTCorrection(clusters, corrected, p)
	if corrected[0] != 1 || corrected[1] != 1 {
		t.Fatalf("degenerate clusters changed: %v", corrected)
	}
}

func TestSmallSampleTPlanNeverSmaller(t *testing.T) {
	names, times := bimodalTimes(3000, 21)
	base := defaultP()
	planZ, err := BuildPlan(names, times, base)
	if err != nil {
		t.Fatal(err)
	}
	tp := base
	tp.SmallSampleT = true
	planT, err := BuildPlan(names, times, tp)
	if err != nil {
		t.Fatal(err)
	}
	if planT.TotalSamples() < planZ.TotalSamples() {
		t.Fatalf("t-corrected plan has fewer samples: %d vs %d",
			planT.TotalSamples(), planZ.TotalSamples())
	}
}

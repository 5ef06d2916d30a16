package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"stemroot/internal/workloads"
)

// TestSuiteComparisonDeterministicAcrossParallelism pins the experiments
// layer's half of the tentpole contract: fanning (workload, method) work
// over any number of workers yields byte-identical rows.
func TestSuiteComparisonDeterministicAcrossParallelism(t *testing.T) {
	cfg := Quick()
	cfg.Reps = 1
	cfg.Sim.Workers = 1
	want, err := SuiteComparison(cfg, workloads.SuiteRodinia)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.NumCPU(), 2 * runtime.NumCPU()} {
		cfg.Sim.Workers = workers
		got, err := SuiteComparison(cfg, workloads.SuiteRodinia)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parallelism=%d rows differ from serial run", workers)
		}
	}
}

// TestConfidenceDeterministicAcrossParallelism covers the independent-runs
// fan-out: per-run errors must fold identically in run order no matter how
// many workers execute the runs.
func TestConfidenceDeterministicAcrossParallelism(t *testing.T) {
	cfg := Quick()
	cfg.Sim.Workers = 1
	want, err := Confidence(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, runtime.NumCPU()} {
		cfg.Sim.Workers = workers
		got, err := Confidence(cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("Parallelism=%d: %+v differs from serial %+v", workers, *got, *want)
		}
	}
}

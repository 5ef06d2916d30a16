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

// TestConfidenceDeterministicAcrossParallelism covers the coverage grid's
// fan-out: cells fold in workload order, then seed order, however many
// workers score the workloads. The suites are scaled down, since the grid's
// seed counts are fixed.
func TestConfidenceDeterministicAcrossParallelism(t *testing.T) {
	cfg := Quick()
	cfg.CASIOScale, cfg.HFScale, cfg.DSEMaxCalls = 0.005, 0.0005, 4
	cfg.Sim.Workers = 1
	want, err := Confidence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sim.Workers = runtime.NumCPU() + 1
	got, err := Confidence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parallelism=%d: %+v differs from serial %+v", cfg.Sim.Workers, *got, *want)
	}
}

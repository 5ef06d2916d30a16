package pipeline

import (
	"math"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// TestParEngineAccuracyContract holds the relaxed-sync engine's accuracy
// contract on whole workloads: over the quick reduced DSE suite (11 Rodinia
// + 6 HuggingFace workloads, 24 invocations each, seed 1), par-mode full
// simulation at gpu.DefaultEpoch stays within 2 % of the exact engine's
// total cycles on every workload, and its per-invocation cycles are
// bit-identical at one and at two segment and kernel workers.
func TestParEngineAccuracyContract(t *testing.T) {
	unclampProcs(t)
	ws := append(workloads.DSERodinia(1, 24), workloads.DSEHuggingFace(1, 24)...)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	fullSim := func(w *trace.Workload, opt Options) []float64 {
		t.Helper()
		cycles, err := FullSimOpt(w, cfg, lim, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		return cycles
	}
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}

	var maxErr, meanErr float64
	worst, differs := "", false
	for _, w := range ws {
		exact := fullSim(w, Options{Workers: 1})
		par := fullSim(w, Options{Workers: 1, Engine: gpu.EngineModePar, KernelWorkers: 1})
		par2 := fullSim(w, Options{Workers: 2, Engine: gpu.EngineModePar, KernelWorkers: 2})
		for i := range par {
			if math.Float64bits(par2[i]) != math.Float64bits(par[i]) {
				t.Fatalf("%s: invocation %d is %v at 2 workers, %v at 1", w.Name, i, par2[i], par[i])
			}
			differs = differs || par[i] != exact[i]
		}
		e := 100 * math.Abs(sum(par)-sum(exact)) / sum(exact)
		meanErr += e / float64(len(ws))
		if e > maxErr || worst == "" {
			maxErr, worst = e, w.Name
		}
	}
	t.Logf("par at epoch %v over %d workloads: max error %.3f%% (%s), mean %.3f%%",
		float64(gpu.DefaultEpoch), len(ws), maxErr, worst, meanErr)
	if len(ws) != 17 {
		t.Fatalf("%d DSE workloads, want 17", len(ws))
	}
	if !differs {
		t.Fatal("par and exact cycles identical on every invocation: the contract is vacuous")
	}
	if maxErr > 2 {
		t.Fatalf("max total-cycles error %.3f%% on %s exceeds the 2%% contract", maxErr, worst)
	}
}

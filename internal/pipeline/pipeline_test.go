package pipeline

import (
	"fmt"
	"runtime"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

func dseWorkload(t testing.TB, name string, calls int) *trace.Workload {
	t.Helper()
	for _, w := range workloads.DSERodinia(1, calls) {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("workload %q not in DSE suite", name)
	return nil
}

func TestFullSimProducesCycles(t *testing.T) {
	w := dseWorkload(t, "heartwall", 30)
	cycles, err := FullSimOpt(w, gpu.Baseline(), kernelgen.DSELimits(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != w.Len() {
		t.Fatal("cycle count length mismatch")
	}
	for i, c := range cycles {
		if c <= 0 {
			t.Fatalf("invocation %d has %v cycles", i, c)
		}
	}
	// The anomalous first call must be far cheaper than the second.
	if cycles[0] > cycles[1]/3 {
		t.Fatalf("first-call anomaly lost in simulation: %v vs %v", cycles[0], cycles[1])
	}
}

// TestFullSimReusesSimulators pins the idle-simulator list behind
// gpu.RunSegmentedEngine: a second FullSimOpt on the same configuration must
// not rebuild the L2 and per-SM L1 arrays (about 0.4 MiB for the baseline
// part — most of a small call's allocation) and must return bit-equal cycles.
// Reuse is a function of the call sequence alone (no garbage-collector or
// scheduler dependence), so every repeat call is held to the bound.
var reuseRuns int

func TestFullSimReusesSimulators(t *testing.T) {
	w := dseWorkload(t, "heartwall", 20)
	cfg := gpu.Baseline()
	reuseRuns++ // a configuration no other test, and no earlier -count run, left a simulator for
	cfg.Name = fmt.Sprintf("pool-reuse-%d", reuseRuns)
	run := func() ([]float64, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cycles, err := FullSimOpt(w, cfg, kernelgen.DSELimits(), Options{Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return cycles, after.TotalAlloc - before.TotalAlloc
	}
	first, cold := run()
	const simBytes = 384 << 10 // 16384 L2 ways + 16 x 512 L1 ways, 16 B each
	if cold < simBytes {
		t.Fatalf("cold call allocated only %d bytes; the test no longer measures simulator construction", cold)
	}
	for i := 0; i < 3; i++ {
		again, n := run()
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("call %d invocation %d: %v cycles on a reused simulator, %v on a fresh one", i+2, j, again[j], first[j])
			}
		}
		if n >= simBytes/2 {
			t.Fatalf("call %d allocates %d bytes (cold: %d); want under half a simulator (%d)", i+2, n, cold, simBytes/2)
		}
	}
}

func TestSampledSimSubset(t *testing.T) {
	w := dseWorkload(t, "lud", 30)
	got, err := SampledSimOpt(nil, w, gpu.Baseline(), kernelgen.DSELimits(), []int{0, 5, 10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("sampled %d kernels", len(got))
	}
	if _, err := SampledSimOpt(nil, w, gpu.Baseline(), kernelgen.DSELimits(), []int{999999}, Options{}); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
}

func TestRunSTEMOnSimulator(t *testing.T) {
	w := dseWorkload(t, "heartwall", 40)
	lim := kernelgen.DSELimits()
	cfg := gpu.Baseline()
	full, err := FullSimOpt(w, cfg, lim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOpt(w, hwmodel.RTX2080, sampling.NewSTEMRoot(1), cfg, lim, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.ErrorPct > 15 {
		t.Fatalf("STEM simulator error = %v%%", res.Outcome.ErrorPct)
	}
	if res.Outcome.Speedup <= 1 {
		t.Fatalf("no speedup: %v", res.Outcome.Speedup)
	}
}

func TestRunRejectsBadGroundTruth(t *testing.T) {
	w := dseWorkload(t, "lud", 20)
	_, err := RunOpt(w, hwmodel.RTX2080, sampling.NewSTEMRoot(1), gpu.Baseline(),
		kernelgen.DSELimits(), []float64{1, 2}, Options{})
	if err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestSTEMBeatsPKAOnSimulatorHeartwall(t *testing.T) {
	w := dseWorkload(t, "heartwall", 40)
	lim := kernelgen.DSELimits()
	cfg := gpu.Baseline()
	full, err := FullSimOpt(w, cfg, lim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stem, err := RunOpt(w, hwmodel.RTX2080, sampling.NewSTEMRoot(1), cfg, lim, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pka, err := RunOpt(w, hwmodel.RTX2080, sampling.NewPKA(1), cfg, lim, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stem.Outcome.ErrorPct >= pka.Outcome.ErrorPct {
		t.Fatalf("STEM (%v%%) should beat PKA (%v%%) on heartwall",
			stem.Outcome.ErrorPct, pka.Outcome.ErrorPct)
	}
}

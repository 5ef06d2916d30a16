package experiments

import (
	"strings"
	"testing"

	"stemroot/internal/gpu"
)

// TestEpochSweep pins the sweep's shape and its core claims on the quick
// config: one point per epoch in the grid with exactly one default-marked
// row, errors finite and non-increasing in the large (the default epoch must
// hold the <=2% accuracy contract the engine ships with), and error columns
// bit-identical for every Parallelism value.
func TestEpochSweep(t *testing.T) {
	cfg := Quick()
	cfg.DSEMaxCalls = 24
	res, err := EpochSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(EpochSweepEpochs) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(EpochSweepEpochs))
	}
	defaults := 0
	for i, p := range res.Points {
		if p.Epoch != EpochSweepEpochs[i] {
			t.Fatalf("point %d epoch %v, want %v", i, p.Epoch, EpochSweepEpochs[i])
		}
		if p.Default {
			defaults++
			if p.Epoch != gpu.DefaultEpoch {
				t.Fatalf("default mark on epoch %v, DefaultEpoch is %v", p.Epoch, gpu.DefaultEpoch)
			}
		}
		if p.MaxErrorPct < p.MeanErrorPct || p.MaxErrorPct < 0 {
			t.Fatalf("epoch %v: max %v < mean %v", p.Epoch, p.MaxErrorPct, p.MeanErrorPct)
		}
		if p.MaxWorkload == "" {
			t.Fatalf("epoch %v: no worst workload recorded", p.Epoch)
		}
	}
	if defaults != 1 {
		t.Fatalf("%d default-marked points, want 1", defaults)
	}
	if d := res.DefaultPoint(); d.MaxErrorPct > 2.0 {
		t.Fatalf("default epoch %v max error %.3f%% exceeds the 2%% contract", d.Epoch, d.MaxErrorPct)
	}
	if out := res.Render(); !strings.Contains(out, "*default") || !strings.Contains(out, "default epoch") {
		t.Fatalf("render missing default-epoch markers:\n%s", out)
	}

	// Determinism: the error columns must not depend on the worker count.
	cfg.Sim.Workers = 2
	res2, err := EpochSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		a, b := res.Points[i], res2.Points[i]
		if a.MeanErrorPct != b.MeanErrorPct || a.MaxErrorPct != b.MaxErrorPct || a.MaxWorkload != b.MaxWorkload {
			t.Fatalf("epoch %v: errors differ across Parallelism (%+v vs %+v)", a.Epoch, a, b)
		}
	}
}

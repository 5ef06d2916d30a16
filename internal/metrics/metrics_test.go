package metrics

import (
	"testing"

	"stemroot/internal/core"
	"stemroot/internal/hwmodel"
	"stemroot/internal/sampling"
	"stemroot/internal/workloads"
)

func TestAggregateAndEstimateAgreeForSTEM(t *testing.T) {
	// Figure 14: a STEM plan's extrapolated metrics land near the full
	// workload's aggregate across all 13 metrics.
	var w = workloads.CASIO(1, 0.03)[0] // bert_infer
	model := hwmodel.New(hwmodel.RTX2080, w.Seed)
	prof := model.Profile(w)

	stem := sampling.NewSTEMRoot(1)
	plan, err := stem.Plan(w, prof)
	if err != nil {
		t.Fatal(err)
	}
	full := Aggregate(w, model)
	est, err := Estimate(plan, w, model)
	if err != nil {
		t.Fatal(err)
	}
	errs := RelErrorsPct(full, est)
	if mx := MaxPct(errs); mx > 10 {
		t.Fatalf("max metric error %v%% too large (errors: %v)", mx, errs)
	}
}

func TestCountVsRateHandling(t *testing.T) {
	w := workloads.CASIO(1, 0.02)[0]
	model := hwmodel.New(hwmodel.RTX2080, w.Seed)
	full := Aggregate(w, model)
	// Rates stay in [0,1]; counts grow with workload size.
	for j, isCount := range hwmodel.CountMetrics {
		if !isCount && full[j] > 1 {
			t.Fatalf("rate metric %s aggregated to %v > 1", Names[j], full[j])
		}
		if isCount && full[j] <= 0 {
			t.Fatalf("count metric %s aggregated to %v", Names[j], full[j])
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	w := workloads.CASIO(1, 0.02)[0]
	model := hwmodel.New(hwmodel.RTX2080, w.Seed)
	if _, err := Estimate(nil, w, model); err == nil {
		t.Fatal("expected error for nil plan")
	}
	bad := &sampling.Plan{Plan: core.Plan{Clusters: []core.PlanCluster{{Samples: []int{1 << 30}, Weight: 1}}}}
	if _, err := Estimate(bad, w, model); err == nil {
		t.Fatal("expected error for out-of-range sample")
	}
}

func TestRelErrorsPct(t *testing.T) {
	full := Vector{100, 0, 50}
	est := Vector{110, 5, 50}
	errs := RelErrorsPct(full, est)
	if errs[0] != 10 || errs[1] != 0 || errs[2] != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if MaxPct(errs) != 10 {
		t.Fatal("max wrong")
	}
}

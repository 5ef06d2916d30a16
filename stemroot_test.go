package stemroot

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"stemroot/internal/rng"
)

func syntheticProfile(n int, seed uint64) ([]string, []float64) {
	r := rng.New(seed)
	names := make([]string, n)
	times := make([]float64, n)
	for i := range times {
		switch i % 3 {
		case 0:
			names[i] = "gemm"
			if i%6 == 0 {
				times[i] = 100 * (1 + 0.03*r.NormFloat64())
			} else {
				times[i] = 250 * (1 + 0.03*r.NormFloat64())
			}
		case 1:
			names[i] = "pool"
			times[i] = 40 * math.Exp(0.3*r.NormFloat64())
		default:
			names[i] = "relu"
			times[i] = 5 * (1 + 0.01*r.NormFloat64())
		}
		if times[i] < 0 {
			times[i] = 0
		}
	}
	return names, times
}

func TestSampleValidation(t *testing.T) {
	if _, err := Sample(nil, nil, Options{}); err == nil {
		t.Fatal("expected error for empty profile")
	}
	if _, err := Sample([]string{"a"}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
	if _, err := Sample([]string{"a"}, []float64{-1}, Options{}); err == nil {
		t.Fatal("expected error for negative time")
	}
	if _, err := Sample([]string{"a"}, []float64{1}, Options{Epsilon: 2}); err == nil {
		t.Fatal("expected error for bad epsilon")
	}
}

// TestSampleTimeValidation pins which times a profile may hold: a NaN
// would make the predicted error NaN and a +Inf would make it 0 — a zero
// claimed bound — so both are rejected up front, by every planner, with
// the invocation named.
func TestSampleTimeValidation(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		bad  float64 // planted at invocation 2 of a 4-invocation profile
		ok   bool
	}{
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
		{"negative", -1e-300, false},
		{"-0", negZero, true},
		{"0", 0, true},
	}
	for _, c := range cases {
		names := []string{"a", "b", "a", "b"}
		times := []float64{1, 2, c.bad, 4}

		plan, err := Sample(names, times, Options{})
		checkTimeVerdict(t, "Sample/"+c.name, plan, err, c.ok)

		plan, err = SampleStream(sliceScanner{names, times}, Options{}, StreamOptions{})
		checkTimeVerdict(t, "SampleStream/"+c.name, plan, err, c.ok)

		sp, err := NewStreamPlanner(Options{}, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range names {
			if i%2 == 0 {
				sp.Add(names[i], times[i])
			} else {
				sp.AddBytes([]byte(names[i]), times[i])
			}
		}
		plan, err = sp.Plan()
		checkTimeVerdict(t, "StreamPlanner.Plan/"+c.name, plan, err, c.ok)
		plan, err = sp.CurrentPlan()
		checkTimeVerdict(t, "StreamPlanner.CurrentPlan/"+c.name, plan, err, c.ok)
		if _, err := sp.Snapshot(); (err == nil) != c.ok {
			t.Errorf("StreamPlanner.Snapshot/%s: err = %v", c.name, err)
		}
	}

	// The error sticks: valid rows after the bad one do not clear it.
	sp, _ := NewStreamPlanner(Options{}, StreamOptions{})
	sp.Add("a", 1)
	if _, err := sp.Plan(); err != nil {
		t.Fatal(err)
	}
	sp.Add("a", math.NaN())
	sp.Add("a", 1)
	if _, err := sp.CurrentPlan(); err == nil || !strings.Contains(err.Error(), "invocation 1") {
		t.Fatalf("CurrentPlan after a NaN at invocation 1: err = %v", err)
	}
}

// TestSampleRejectsOverflowingTimes: finite times whose variance overflows
// (σ² of {1, 1e300}) used to come back as a plan with PredictedError = +Inf.
func TestSampleRejectsOverflowingTimes(t *testing.T) {
	names := make([]string, 40)
	times := make([]float64, len(names))
	for i := range names {
		names[i], times[i] = "k", 1
		if i%2 == 1 {
			times[i] = 1e300
		}
	}
	check := func(what string, plan *Plan, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: accepted with predicted error %v", what, plan.PredictedError)
		} else if !strings.Contains(err.Error(), "overflow the error model") {
			t.Errorf("%s: error does not say the times overflow the error model: %v", what, err)
		}
	}
	plan, err := Sample(names, times, Options{})
	check("Sample", plan, err)
	plan, err = Sample(names, times, Options{Flat: true})
	check("Sample/flat", plan, err)
	plan, err = SampleStream(sliceScanner{names, times}, Options{}, StreamOptions{})
	check("SampleStream", plan, err)

	sp, err := NewStreamPlanner(Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		sp.Add(names[i], times[i])
	}
	plan, err = sp.Plan()
	check("StreamPlanner.Plan", plan, err)
	plan, err = sp.CurrentPlan()
	check("StreamPlanner.CurrentPlan", plan, err)
	if _, err := sp.Snapshot(); err == nil {
		t.Error("StreamPlanner.Snapshot: accepted")
	}
}

func checkTimeVerdict(t *testing.T, what string, plan *Plan, err error, ok bool) {
	t.Helper()
	switch {
	case ok && err != nil:
		t.Errorf("%s: rejected: %v", what, err)
	case ok && (math.IsNaN(plan.PredictedError) || math.IsInf(plan.PredictedError, 0)):
		t.Errorf("%s: predicted error %v", what, plan.PredictedError)
	case !ok && err == nil:
		t.Errorf("%s: accepted, predicted error %v", what, plan.PredictedError)
	case !ok && !strings.Contains(err.Error(), "invocation 2"):
		t.Errorf("%s: error does not name invocation 2: %v", what, err)
	}
}

func TestSampleSingleInvocation(t *testing.T) {
	for _, v := range []float64{0, 3.5} {
		plan, err := Sample([]string{"only"}, []float64{v}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Clusters) != 1 || !reflect.DeepEqual(plan.Clusters[0].Members, []int{0}) ||
			!reflect.DeepEqual(plan.Clusters[0].Samples, []int{0}) {
			t.Fatalf("time %v: plan %+v", v, plan)
		}
		if plan.PredictedError != 0 || plan.Estimate(func(int) float64 { return v }) != v {
			t.Fatalf("time %v: predicted error %v, estimate %v", v, plan.PredictedError,
				plan.Estimate(func(int) float64 { return v }))
		}
		var buf bytes.Buffer
		if err := plan.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSampleEndToEnd(t *testing.T) {
	names, times := syntheticProfile(9000, 1)
	plan, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Epsilon != 0.05 || plan.Confidence != 0.95 {
		t.Fatalf("defaults not applied: %+v", plan)
	}
	if plan.PredictedError > plan.Epsilon {
		t.Fatalf("predicted error %v exceeds epsilon", plan.PredictedError)
	}

	// Coverage: clusters partition all invocations.
	seen := make(map[int]bool)
	for _, c := range plan.Clusters {
		for _, m := range c.Members {
			if seen[m] {
				t.Fatal("invocation in two clusters")
			}
			seen[m] = true
		}
	}
	if len(seen) != len(times) {
		t.Fatalf("clusters cover %d of %d", len(seen), len(times))
	}

	// Accuracy: estimate within epsilon of the truth.
	var truth float64
	for _, x := range times {
		truth += x
	}
	est := plan.Estimate(func(i int) float64 { return times[i] })
	if rel := math.Abs(est-truth) / truth; rel > plan.Epsilon {
		t.Fatalf("relative error %v exceeds %v", rel, plan.Epsilon)
	}

	// Efficiency: far fewer distinct simulations than invocations.
	if n := len(plan.SampledIndices()); n >= len(times)/4 {
		t.Fatalf("sampled %d of %d — no reduction", n, len(times))
	}
	if plan.TotalSamples() < len(plan.SampledIndices()) {
		t.Fatal("total samples below distinct count")
	}
}

func TestSampleFlatVsRoot(t *testing.T) {
	names, times := syntheticProfile(9000, 2)
	root, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Sample(names, times, Options{Flat: true})
	if err != nil {
		t.Fatal(err)
	}
	// ROOT splits the bimodal gemm; flat keeps one cluster per name.
	if len(root.Clusters) <= len(flat.Clusters) {
		t.Fatalf("ROOT clusters (%d) should exceed flat (%d)", len(root.Clusters), len(flat.Clusters))
	}
}

func TestSampleSizeAPI(t *testing.T) {
	m, err := SampleSize(100000, 10, 5, 0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if m != 385 {
		t.Fatalf("m = %d, want 385", m)
	}
	if _, err := SampleSize(10, 1, 1, 0, 0.95); err == nil {
		t.Fatal("expected epsilon error")
	}
	if _, err := SampleSize(10, 1, 1, 0.05, 1); err == nil {
		t.Fatal("expected confidence error")
	}
}

func TestZScoreAPI(t *testing.T) {
	z, err := ZScore(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-1.96) > 0.001 {
		t.Fatalf("z = %v", z)
	}
	if _, err := ZScore(0); err == nil {
		t.Fatal("expected error")
	}
}

func TestOptionsOverride(t *testing.T) {
	names, times := syntheticProfile(6000, 3)
	tight, err := Sample(names, times, Options{Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Sample(names, times, Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if tight.TotalSamples() <= loose.TotalSamples() {
		t.Fatalf("tight bound should need more samples: %d vs %d",
			tight.TotalSamples(), loose.TotalSamples())
	}
}

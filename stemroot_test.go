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

// overflowTimes is a profile of n rows of one kernel whose finite times,
// {1, 1e300} alternately, have a variance past MaxFloat64.
func overflowTimes(n int) ([]string, []float64) {
	names := make([]string, n)
	times := make([]float64, len(names))
	for i := range names {
		names[i], times[i] = "k", 1
		if i%2 == 1 {
			times[i] = 1e300
		}
	}
	return names, times
}

// TestSampleRejectsOverflowingTimes: finite times whose variance overflows
// (σ² of {1, 1e300}) used to come back as a plan with PredictedError = +Inf.
// Seven rows are too few for ROOT to cut the two times apart, so the
// overflowing variance reaches the plan.
func TestSampleRejectsOverflowingTimes(t *testing.T) {
	names, times := overflowTimes(7)
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

// TestSampleCutsOverflowingTimes: forty rows of the same times are enough
// for ROOT, which cuts them into the two constant leaves, so every ROOT
// entry point returns a plan with a true bound of 0; Flat still refuses.
func TestSampleCutsOverflowingTimes(t *testing.T) {
	names, times := overflowTimes(40)
	check := func(what string, plan *Plan, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(plan.Clusters) != 2 || plan.PredictedError != 0 {
			t.Fatalf("%s: %d clusters, predicted error %v; want the 2 constant leaves, 0", what, len(plan.Clusters), plan.PredictedError)
		}
		for i, want := range []float64{1, 1e300} {
			if c := plan.Clusters[i]; c.Mean != want || c.StdDev != 0 || c.Population != 20 {
				t.Fatalf("%s: cluster %d is %+v; want 20 times of %v", what, i, c, want)
			}
		}
	}
	plan, err := Sample(names, times, Options{})
	check("Sample", plan, err)
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
	if _, err := Sample(names, times, Options{Flat: true}); err == nil || !strings.Contains(err.Error(), "overflow the error model") {
		t.Fatalf("Sample/flat: err = %v; want the overflow error", err)
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

// TestSampleSizeRefusesBadStatistics: statistics no sample size follows
// from are refused with an error naming the argument, never sized (a NaN
// once came back as the most negative int with a nil error).
func TestSampleSizeRefusesBadStatistics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		n            int
		mean, stdDev float64
		arg          string
	}{
		{100, nan, 1, "mean"},
		{100, inf, 1, "mean"},
		{100, -inf, 1, "mean"},
		{100, 10, nan, "stdDev"},
		{100, 10, inf, "stdDev"},
		{100, 10, -1, "stdDev"},
		{-1, 10, 1, "n"},
	} {
		m, err := SampleSize(tc.n, tc.mean, tc.stdDev, 0.05, 0.95)
		if err == nil || m != 0 {
			t.Errorf("SampleSize(%d, %v, %v) = %d, %v; want 0 and an error", tc.n, tc.mean, tc.stdDev, m, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.arg) {
			t.Errorf("SampleSize(%d, %v, %v): %q does not name %s", tc.n, tc.mean, tc.stdDev, err, tc.arg)
		}
	}
	// The edges of the domain still size: an empty population needs no
	// sample, and a constant one exactly one.
	if m, err := SampleSize(0, 10, 1, 0.05, 0.95); err != nil || m != 0 {
		t.Errorf("SampleSize(0, 10, 1) = %d, %v; want 0, nil", m, err)
	}
	if m, err := SampleSize(100, 10, 0, 0.05, 0.95); err != nil || m != 1 {
		t.Errorf("SampleSize(100, 10, 0) = %d, %v; want 1, nil", m, err)
	}
}

// TestSampledIndicesAscendingDistinct pins the one distinct-sample
// contract: every plan, batch, streaming or read back from JSON with
// repeated and out-of-order samples, lists each sampled invocation once,
// in ascending order.
func TestSampledIndicesAscendingDistinct(t *testing.T) {
	names, times := syntheticProfile(20000, 12)
	batch, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := SampleStream(sliceScanner{names, times}, Options{}, StreamOptions{ReservoirCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	const js = `{"version": 1, "epsilon": 0.05, "confidence": 0.95, "predicted_error": 0.01,
		"clusters": [
			{"kernel": "a", "members": [9, 4, 7], "samples": [9, 4, 9], "weight": 1, "mean_us": 1, "stddev_us": 0},
			{"kernel": "b", "members": [1, 2], "samples": [2, 1, 2], "weight": 1, "mean_us": 1, "stddev_us": 0}
		]}`
	read, err := ReadPlanJSON(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if got := read.SampledIndices(); !reflect.DeepEqual(got, []int{1, 2, 4, 9}) {
		t.Errorf("read-back plan: SampledIndices = %v, want [1 2 4 9]", got)
	}
	for name, plan := range map[string]*Plan{"Sample": batch, "SampleStream": stream, "ReadPlanJSON": read} {
		got := plan.SampledIndices()
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("%s: SampledIndices not strictly ascending at %d: %d after %d", name, i, got[i], got[i-1])
			}
		}
		distinct := map[int]bool{}
		for _, c := range plan.Clusters {
			for _, s := range c.Samples {
				distinct[s] = true
			}
		}
		if len(got) != len(distinct) || len(got) == 0 {
			t.Fatalf("%s: %d indices for %d distinct samples", name, len(got), len(distinct))
		}
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

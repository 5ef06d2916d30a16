package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"stemroot/internal/rng"
)

// bimodalTimes builds n invocations of one kernel whose times form two
// well-separated narrow peaks.
func bimodalTimes(n int, seed uint64) ([]string, []float64) {
	r := rng.New(seed)
	names := make([]string, n)
	times := make([]float64, n)
	for i := range times {
		names[i] = "gemm"
		if i%2 == 0 {
			times[i] = 10 * (1 + 0.02*r.NormFloat64())
		} else {
			times[i] = 100 * (1 + 0.02*r.NormFloat64())
		}
	}
	return names, times
}

func TestBuildClustersCoverExactly(t *testing.T) {
	names, times := bimodalTimes(1000, 1)
	// Add a second kernel.
	r := rng.New(2)
	for i := 0; i < 500; i++ {
		names = append(names, "relu")
		times = append(times, 1+0.05*r.NormFloat64())
	}
	leaves := BuildClusters(names, times, defaultP())
	seen := make(map[int]bool)
	for _, c := range leaves {
		for _, ix := range c.Indices {
			if seen[ix] {
				t.Fatalf("index %d in two clusters", ix)
			}
			seen[ix] = true
		}
		if c.Stats.N != len(c.Indices) {
			t.Fatal("stats N mismatch")
		}
	}
	if len(seen) != len(times) {
		t.Fatalf("clusters cover %d of %d invocations", len(seen), len(times))
	}
}

func TestRootSplitsBimodalKernel(t *testing.T) {
	names, times := bimodalTimes(2000, 3)
	leaves := BuildClusters(names, times, defaultP())
	if len(leaves) < 2 {
		t.Fatalf("ROOT kept bimodal kernel as %d cluster(s)", len(leaves))
	}
	// Each leaf must be essentially unimodal: tiny within-cluster CoV.
	for _, c := range leaves {
		if c.Stats.N < 10 {
			continue
		}
		if cov := c.Stats.CoV(); cov > 0.1 {
			t.Fatalf("leaf CoV = %v, peaks not separated", cov)
		}
	}
}

func TestRootSplittingReducesSimTime(t *testing.T) {
	names, times := bimodalTimes(2000, 4)
	p := defaultP()
	split, err := BuildPlan(names, times, p)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := BuildPlan(names, times, flatOf(p))
	if err != nil {
		t.Fatal(err)
	}
	if split.SimTimeEstimate() >= flat.SimTimeEstimate() {
		t.Fatalf("ROOT (%v) should simulate less than flat STEM (%v)",
			split.SimTimeEstimate(), flat.SimTimeEstimate())
	}
}

func TestRootDoesNotOverSplitUnimodal(t *testing.T) {
	r := rng.New(5)
	n := 2000
	names := make([]string, n)
	times := make([]float64, n)
	for i := range times {
		names[i] = "stable_kernel"
		times[i] = 50 * (1 + 0.01*r.NormFloat64())
	}
	leaves := BuildClusters(names, times, defaultP())
	if len(leaves) > 3 {
		t.Fatalf("unimodal kernel split into %d clusters", len(leaves))
	}
}

// flatOf is p with ROOT's splitting disabled.
func flatOf(p Params) Params {
	p.Flat = true
	return p
}

func TestRootRespectsMinClusterSize(t *testing.T) {
	// A kernel with fewer than minClusterSize invocations stays whole, however
	// far apart its times are.
	names := make([]string, minClusterSize-1)
	times := make([]float64, len(names))
	for i := range names {
		names[i], times[i] = "small", float64(1+1000*(i%2))
	}
	if leaves := BuildClusters(names, times, defaultP()); len(leaves) != 1 {
		t.Fatalf("a %d-invocation kernel split into %d leaves", len(names), len(leaves))
	}
	// A larger bimodal kernel splits, and never into an empty leaf.
	names, times = bimodalTimes(2000, 6)
	leaves := BuildClusters(names, times, defaultP())
	if len(leaves) < 2 {
		t.Fatalf("a bimodal kernel stayed as %d leaf", len(leaves))
	}
	for _, c := range leaves {
		if len(c.Indices) == 0 {
			t.Fatal("empty leaf")
		}
	}
}

func TestRootDeterministic(t *testing.T) {
	names, times := bimodalTimes(1000, 7)
	a := BuildClusters(names, times, defaultP())
	b := BuildClusters(names, times, defaultP())
	if len(a) != len(b) {
		t.Fatal("nondeterministic leaf count")
	}
	for i := range a {
		if len(a[i].Indices) != len(b[i].Indices) || a[i].Stats != b[i].Stats {
			t.Fatalf("leaf %d differs between runs", i)
		}
	}
}

func TestBuildClustersDeterministicAcrossWorkers(t *testing.T) {
	// Many kernel names so the fan-out actually distributes work.
	r := rng.New(9)
	var names []string
	var times []float64
	kernels := []string{"gemm", "relu", "pool", "softmax", "ln", "attn", "embed"}
	for i := 0; i < 4000; i++ {
		k := kernels[r.Intn(len(kernels))]
		names = append(names, k)
		base := float64(10 * (1 + r.Intn(3)))
		times = append(times, base*math.Exp(0.2*r.NormFloat64()))
	}
	p := defaultP()
	p.Workers = 1
	want := BuildClusters(names, times, p)
	for _, workers := range []int{2, 5, 16} {
		p.Workers = workers
		got := BuildClusters(names, times, p)
		if len(got) != len(want) {
			t.Fatalf("Workers=%d: %d leaves, serial %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Stats != want[i].Stats ||
				len(got[i].Indices) != len(want[i].Indices) {
				t.Fatalf("Workers=%d: leaf %d differs from serial", workers, i)
			}
			for j := range want[i].Indices {
				if got[i].Indices[j] != want[i].Indices[j] {
					t.Fatalf("Workers=%d: leaf %d member %d differs", workers, i, j)
				}
			}
		}
	}
}

// TestBuildClustersGrainBitIdentical pins the row grain of the fan-out:
// on both sides of the cut BuildClusters returns, at every Workers value,
// exactly what one worker returns — and the cut is where it says it is.
func TestBuildClustersGrainBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // or Workers is clamped to the box
	for _, n := range []int{rootGrainRows - 1, rootGrainRows, rootGrainRows + 1, 10 * rootGrainRows} {
		names, times := oracleProfile(n, uint64(n))
		p := defaultP()
		want := buildClusters(names, times, p, 1)
		for _, workers := range []int{1, 2, 8} {
			p.Workers = workers
			got := BuildClusters(names, times, p)
			if len(got) != len(want) {
				t.Fatalf("n=%d Workers=%d: %d leaves, one worker %d", n, workers, len(got), len(want))
			}
			for i := range want {
				if got[i].Name != want[i].Name || got[i].Stats != want[i].Stats ||
					!reflect.DeepEqual(got[i].Indices, want[i].Indices) {
					t.Fatalf("n=%d Workers=%d: leaf %d differs from one worker", n, workers, i)
				}
			}
		}
	}

	// The cut is where it says it is: no fan-out one row under the grain,
	// one more worker per grain above it, never more than asked for.
	for _, c := range []struct{ n, asked, want int }{
		{rootGrainRows - 1, 8, 1}, {16, 0, 1},
		{rootGrainRows, 8, 2}, {rootGrainRows, 1, 1},
		{10 * rootGrainRows, 8, 8}, {10 * rootGrainRows, 2, 2}, {10 * rootGrainRows, 0, 8},
	} {
		if got := rootWorkers(c.n, c.asked); got != c.want {
			t.Errorf("rootWorkers(%d rows, Workers=%d) = %d, want %d", c.n, c.asked, got, c.want)
		}
	}
}

// BenchmarkBuildClustersFanOut is the measurement rootGrainRows comes from:
// one worker against two around the crossover (run with -cpu 2 or more).
func BenchmarkBuildClustersFanOut(b *testing.B) {
	for _, n := range []int{16, 256, 512, 768, 1024, 2048, 16384} {
		names, times := oracleProfile(n, 3)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", n, workers), func(b *testing.B) {
				p := defaultP()
				for i := 0; i < b.N; i++ {
					buildClusters(names, times, p, workers)
				}
			})
		}
	}
}

func TestRootKInsensitive(t *testing.T) {
	// §3.4: "any number above 2 works well" — k=2,3,4 must all isolate the
	// peaks (leaf CoV small) and give similar simulated time.
	names, times := bimodalTimes(3000, 8)
	var taus []float64
	for _, k := range []int{2, 3, 4} {
		p := defaultP()
		p.SplitK = k
		plan, err := BuildPlan(names, times, p)
		if err != nil {
			t.Fatal(err)
		}
		taus = append(taus, plan.SimTimeEstimate())
	}
	for i := 1; i < len(taus); i++ {
		ratio := taus[i] / taus[0]
		if ratio > 3 || ratio < 1.0/3 {
			t.Fatalf("k sensitivity too high: taus = %v", taus)
		}
	}
}

func TestBuildPlanSamplesWithinClusters(t *testing.T) {
	names, times := bimodalTimes(2000, 9)
	plan, err := BuildPlan(names, times, defaultP())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.Clusters {
		member := make(map[int]bool, len(c.Members))
		for _, ix := range c.Members {
			member[ix] = true
		}
		// Every ROOT leaf has a member, so it is sized to at least one
		// sample: no plan cluster is empty.
		if len(c.Samples) < 1 || c.Population != len(c.Members) {
			t.Fatalf("cluster has %d samples and population %d for %d members", len(c.Samples), c.Population, len(c.Members))
		}
		for _, s := range c.Samples {
			if !member[s] {
				t.Fatalf("sample %d not a cluster member", s)
			}
		}
		wantW := float64(len(c.Members)) / float64(len(c.Samples))
		if math.Abs(c.Weight-wantW) > 1e-9 {
			t.Fatalf("weight %v != N/m %v", c.Weight, wantW)
		}
	}
	if plan.PredictedError > plan.Params.Epsilon {
		t.Fatalf("plan predicted error %v exceeds epsilon", plan.PredictedError)
	}
}

func TestPlanEstimateAccuracy(t *testing.T) {
	// The weighted-sum estimate from the plan's own profile must land
	// within the error bound of the true total (with margin for the 95%
	// confidence level).
	names, times := bimodalTimes(20000, 10)
	p := defaultP()
	plan, err := BuildPlan(names, times, p)
	if err != nil {
		t.Fatal(err)
	}
	var truth float64
	for _, tt := range times {
		truth += tt
	}
	est := plan.Estimate(func(i int) float64 { return times[i] })
	relErr := math.Abs(est-truth) / truth
	if relErr > p.Epsilon {
		t.Fatalf("relative error %v exceeds bound %v", relErr, p.Epsilon)
	}
}

func TestPlanEstimateUnbiased(t *testing.T) {
	// Across many seeds the mean estimate converges to the truth.
	names, times := bimodalTimes(5000, 11)
	var truth float64
	for _, tt := range times {
		truth += tt
	}
	var sum float64
	const reps = 40
	for s := 0; s < reps; s++ {
		p := defaultP()
		p.Seed = uint64(s + 1)
		plan, err := BuildPlan(names, times, p)
		if err != nil {
			t.Fatal(err)
		}
		sum += plan.Estimate(func(i int) float64 { return times[i] })
	}
	mean := sum / reps
	if rel := math.Abs(mean-truth) / truth; rel > 0.01 {
		t.Fatalf("mean estimate off by %v — estimator biased?", rel)
	}
}

func TestBuildPlanRejectsBadParams(t *testing.T) {
	names, times := bimodalTimes(100, 13)
	bad := defaultP()
	bad.Epsilon = 0
	if _, err := BuildPlan(names, times, bad); err == nil {
		t.Fatal("expected parameter error")
	}
	if _, err := BuildPlan(names, times, flatOf(bad)); err == nil {
		t.Fatal("expected parameter error (flat)")
	}
}

// overflowProfile is a valid profile of n rows — finite, non-negative
// times — whose spread overflows the error model: σ² of {1, 1e300} is past
// MaxFloat64.
func overflowProfile(n int) ([]string, []float64) {
	names := make([]string, n)
	times := make([]float64, len(names))
	for i := range names {
		names[i] = "k"
		times[i] = 1
		if i%2 == 1 {
			times[i] = 1e300
		}
	}
	return names, times
}

// TestPlanRejectsOverflowingTimes: a plan whose predicted error is +Inf or
// NaN used to be returned as if that were a bound; every planner entry point
// now says the times overflow the error model. The profile has fewer than
// minClusterSize rows, so ROOT cannot cut the two times apart and the
// overflowing variance reaches the plan.
func TestPlanRejectsOverflowingTimes(t *testing.T) {
	names, times := overflowProfile(minClusterSize - 1)
	p := defaultP()
	check := func(what string, plan *Plan, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: accepted with predicted error %v", what, plan.PredictedError)
		}
		if !strings.Contains(err.Error(), "overflow the error model") {
			t.Fatalf("%s: error does not say the times overflow the error model: %v", what, err)
		}
	}
	plan, err := BuildPlan(names, times, p)
	check("BuildPlan", plan, err)
	plan, err = BuildPlan(names, times, flatOf(p))
	check("BuildPlan flat", plan, err)

	ip := feedIncremental(t, names[:2], []float64{1, 1}, p, StreamOptions{})
	_, err = ip.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(names); i++ {
		ip.Add(names[i], times[i])
	}
	plan, err = ip.Plan()
	check("IncrementalPlanner.Plan", plan, err)
	plan, err = ip.CurrentPlan()
	check("IncrementalPlanner.CurrentPlan", plan, err)
	if ip.PlanAt() != 2 || ip.Replans() != 1 {
		t.Fatalf("a refused plan was installed: PlanAt %d, Replans %d", ip.PlanAt(), ip.Replans())
	}
}

// TestBuildPlanRefusesInvalidTimes: the batch planner refuses the times the
// IncrementalPlanner refuses — a negative time, a NaN, ±Inf — with the
// invocation named, ROOT and flat alike, and plans zero and -0.
func TestBuildPlanRefusesInvalidTimes(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  float64 // planted at invocation 2
		ok   bool
	}{
		{"negative", -1e-300, false},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
		{"-0", math.Copysign(0, -1), true},
		{"0", 0, true},
	} {
		for _, p := range []Params{defaultP(), flatOf(defaultP())} {
			_, err := BuildPlan([]string{"a", "b", "a", "b"}, []float64{1, 2, c.bad, 4}, p)
			switch {
			case c.ok && err != nil:
				t.Errorf("%s, flat %v: refused: %v", c.name, p.Flat, err)
			case !c.ok && (err == nil || !strings.Contains(err.Error(), "invocation 2")):
				t.Errorf("%s, flat %v: err = %v; want a refusal naming invocation 2", c.name, p.Flat, err)
			}
		}
	}
}

// TestRootCutsOverflowingTimes: with minClusterSize rows or more, ROOT cuts
// {1, 1e300} into its two constant leaves — Welford's σ of the whole group
// is +Inf, each side's is 0 — so both planners return a plan with a true
// bound of 0, while the flat plan still overflows.
func TestRootCutsOverflowingTimes(t *testing.T) {
	for _, n := range []int{minClusterSize, 40} {
		names, times := overflowProfile(n)
		p := defaultP()
		check := func(what string, plan *Plan, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%d rows, %s: %v", n, what, err)
			}
			if len(plan.Clusters) != 2 || plan.PredictedError != 0 {
				t.Fatalf("%d rows, %s: %d clusters, predicted error %v; want the 2 constant leaves, 0", n, what, len(plan.Clusters), plan.PredictedError)
			}
			for i, want := range []float64{1, 1e300} {
				if c := plan.Clusters[i]; c.Mean != want || c.StdDev != 0 || c.Population != (n+1-i)/2 {
					t.Fatalf("%d rows, %s: cluster %d is %+v; want all %d times of %v", n, what, i, c, (n+1-i)/2, want)
				}
			}
		}
		plan, err := BuildPlan(names, times, p)
		check("BuildPlan", plan, err)
		for i, c := range plan.Clusters {
			for _, m := range c.Members {
				if m%2 != i {
					t.Fatalf("%d rows: member %d in cluster %d", n, m, i)
				}
			}
		}
		ip := feedIncremental(t, names, times, p, StreamOptions{})
		plan, err = ip.Plan()
		check("IncrementalPlanner.Plan", plan, err)
		if _, err := BuildPlan(names, times, flatOf(p)); err == nil || !strings.Contains(err.Error(), "overflow the error model") {
			t.Fatalf("%d rows, BuildPlan flat: err = %v; want the overflow error", n, err)
		}
	}
}

func TestTightEpsilonSamplesMore(t *testing.T) {
	names, times := bimodalTimes(20000, 14)
	sizes := make([]int, 0, 2)
	for _, eps := range []float64{0.03, 0.25} {
		p := defaultP()
		p.Epsilon = eps
		plan, err := BuildPlan(names, times, p)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, plan.TotalSamples())
	}
	if sizes[0] <= sizes[1] {
		t.Fatalf("eps=3%% should need more samples than eps=25%%: %v", sizes)
	}
}

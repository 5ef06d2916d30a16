package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"stemroot/internal/rng"
	"stemroot/internal/stats"
)

// multiKernelTrace builds a trace mixing a bimodal kernel with two
// unimodal ones, in interleaved invocation order.
func multiKernelTrace(n int, seed uint64) ([]string, []float64) {
	r := rng.New(seed)
	names := make([]string, 0, n)
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			names = append(names, "gemm")
			times = append(times, 10*(1+0.02*r.NormFloat64()))
		case 1:
			names = append(names, "gemm")
			times = append(times, 100*(1+0.02*r.NormFloat64()))
		case 2:
			names = append(names, "softmax")
			times = append(times, 5*(1+0.05*r.NormFloat64()))
		default:
			names = append(names, "layernorm")
			times = append(times, 2*(1+0.05*r.NormFloat64()))
		}
	}
	return names, times
}

func feedIncremental(t *testing.T, names []string, times []float64, p Params, opts StreamOptions) *IncrementalPlanner {
	t.Helper()
	ip, err := NewIncrementalPlanner(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		ip.Add(n, times[i])
	}
	return ip
}

// eachName calls f with every kernel's name, state and leaves in ip's last
// re-plan, in sorted-name order, with the leaves' offset among the plan's
// clusters.
func eachName(ip *IncrementalPlanner, f func(name string, st *incNameState, at int, leaves []Cluster)) {
	a := ip.arena
	for i, sp := range a.spans {
		f(a.order[i], a.states[i], sp.lo, a.flat[sp.lo:sp.hi])
	}
}

// exactIntervalStats is the second pass the one-pass planner does without:
// it assigns every row to the leaf ip's last Plan derived for its kernel
// and folds each leaf's exact Welford moments in stream order.
func exactIntervalStats(ip *IncrementalPlanner, names []string, times []float64) []ClusterStats {
	type span struct{ at, n int }
	spans := map[string]span{}
	eachName(ip, func(name string, _ *incNameState, at int, leaves []Cluster) { spans[name] = span{at, len(leaves)} })
	acc := make([]stats.Online, len(ip.arena.flat))
	for i, name := range names {
		sp := spans[name]
		acc[sp.at+leafOf(ip.arena.flat[sp.at:sp.at+sp.n], times[i])].Add(times[i])
	}
	out := make([]ClusterStats, len(acc))
	for i := range acc {
		out[i] = ClusterStats{N: acc[i].N(), Mean: acc[i].Mean(), StdDev: acc[i].StdDev()}
	}
	return out
}

func TestIncrementalPlanMatchesExactStats(t *testing.T) {
	// When every kernel's population fits its reservoir, the reservoirs
	// hold the whole stream in stream order, so the one-pass cluster
	// statistics are the exact ones bit for bit.
	names, times := multiKernelTrace(1800, 7)
	ip := feedIncremental(t, names, times, defaultP(), StreamOptions{})
	plan, err := ip.Plan()
	if err != nil {
		t.Fatal(err)
	}
	exact := exactIntervalStats(ip, names, times)
	if len(exact) != len(plan.Clusters) {
		t.Fatalf("%d intervals for %d clusters", len(exact), len(plan.Clusters))
	}
	for i, want := range exact {
		if got := statsOf(&plan.Clusters[i]); got != want {
			t.Fatalf("cluster %d statistics %+v, exact %+v", i, got, want)
		}
	}
}

// TestReplanIntervalsAreLeaves: a re-plan's clusters are ROOT's leaves of
// each reservoir, one for one, with their statistics, and the leaves' upper
// bounds send every reservoir slot back to its own leaf (leafOf, which
// groupSlots regroups by) — within reservoir capacity and above it, where
// the reservoir is a sample.
func TestReplanIntervalsAreLeaves(t *testing.T) {
	for _, tc := range []struct {
		cap, n, kernels int
	}{{0, 6000, 6}, {64, 12000, 12}, {512, 40000, 8}} {
		names, times := oracleStream(uint64(tc.n), tc.n, tc.kernels, true)
		ip := feedIncremental(t, names, times, defaultP(), StreamOptions{ReservoirCap: tc.cap})
		if _, err := ip.Plan(); err != nil {
			t.Fatal(err)
		}
		eachName(ip, func(name string, st *incNameState, _ int, got []Cluster) {
			vals := st.res.appendTimes(nil)
			idxs := make([]int, len(vals))
			for i := range idxs {
				idxs[i] = i
			}
			leaves := new(splitArena).splitGroup(name, slices.Clone(vals), idxs, ip.p, nil)
			if len(leaves) != len(got) {
				t.Fatalf("cap %d, %s: %d leaves in the plan, ROOT gives %d", tc.cap, name, len(got), len(leaves))
			}
			for li, leaf := range leaves {
				if got[li].Stats != leaf.Stats {
					t.Fatalf("cap %d, %s: leaf %d has %+v, ROOT's %+v", tc.cap, name, li, got[li].Stats, leaf.Stats)
				}
				for _, slot := range leaf.Indices {
					if k := leafOf(got, vals[slot]); k != li {
						t.Fatalf("cap %d, %s: slot %d of leaf %d falls in leaf %d", tc.cap, name, slot, li, k)
					}
				}
			}
		})
	}
}

func TestIncrementalPlanOverCapacityEquivalence(t *testing.T) {
	// With a reservoir far smaller than the stream, the apportioned and
	// calibrated statistics must stay close to the exact statistics of the
	// same intervals, and keep the PredictedError within ε/4 of the one
	// the exact statistics give.
	names, times := multiKernelTrace(40000, 11)
	p := defaultP()
	opts := StreamOptions{ReservoirCap: 512}

	ip := feedIncremental(t, names, times, p, opts)
	onePass, err := ip.Plan()
	if err != nil {
		t.Fatal(err)
	}
	exact := exactIntervalStats(ip, names, times)

	nByName := map[string]int{}
	exactByName := map[string]int{}
	for i := range onePass.Clusters {
		exactByName[onePass.Clusters[i].Kernel] += exact[i].N
	}
	for i := range onePass.Clusters {
		a, b := statsOf(&onePass.Clusters[i]), exact[i]
		name := onePass.Clusters[i].Kernel
		// Per-cluster population is apportioned from reservoir membership,
		// so it carries the reservoir's binomial sampling error; gate at
		// 4σ of Binomial(rcap, p) with p = N_c / N_name.
		nName := float64(exactByName[name])
		p512 := float64(b.N) / nName
		sigma := math.Sqrt(512*p512*(1-p512)) / 512 * nName
		if d := math.Abs(float64(a.N - b.N)); d > 4*sigma+1 {
			t.Fatalf("cluster %d population off by %v (> 4σ=%v; one-pass %d, exact %d)",
				i, d, 4*sigma, a.N, b.N)
		}
		if b.Mean > 0 {
			if rel := math.Abs(a.Mean-b.Mean) / b.Mean; rel > 0.05 {
				t.Fatalf("cluster %d mean off by %v (one-pass %v, exact %v)", i, rel, a.Mean, b.Mean)
			}
		}
		nByName[name] += a.N
	}
	for n, want := range exactByName {
		if nByName[n] != want {
			t.Fatalf("kernel %q apportioned population %d != exact %d", n, nByName[n], want)
		}
	}
	sizes := OptimalSizes(exact, p)
	for i := range sizes {
		sizes[i] = min(sizes[i], exact[i].N)
	}
	exactErr := PredictedError(exact, sizes, p)
	// ε-bounded PredictedError delta (gate: a quarter of ε).
	if d := math.Abs(onePass.PredictedError - exactErr); d > p.Epsilon/4 {
		t.Fatalf("PredictedError delta %v exceeds ε/4 gate (one-pass %v, exact %v)",
			d, onePass.PredictedError, exactErr)
	}
	// The single-pass plan must still extrapolate within the error bound.
	var truth float64
	for _, tt := range times {
		truth += tt
	}
	est := onePass.Estimate(func(i int) float64 { return times[i] })
	if rel := math.Abs(est-truth) / truth; rel > p.Epsilon {
		t.Fatalf("single-pass extrapolation error %v exceeds ε", rel)
	}
}

func TestIncrementalPlanOverCapacityImpliedTotal(t *testing.T) {
	// Calibration invariant: Σ N_c·μ_c over one kernel's clusters equals
	// the kernel's exact total time (to float rounding).
	names, times := multiKernelTrace(30000, 13)
	ip := feedIncremental(t, names, times, defaultP(), StreamOptions{ReservoirCap: 256})
	plan, err := ip.Plan()
	if err != nil {
		t.Fatal(err)
	}
	implied := make(map[string]float64)
	exact := make(map[string]float64)
	for _, c := range plan.Clusters {
		implied[c.Kernel] += float64(c.Population) * c.Mean
	}
	for i, n := range names {
		exact[n] += times[i]
	}
	for n, want := range exact {
		if got := implied[n]; math.Abs(got-want)/want > 1e-9 {
			t.Fatalf("kernel %q implied total %v vs exact %v", n, got, want)
		}
	}
}

func TestIncrementalPlanDeterministic(t *testing.T) {
	// Same stream, same seed -> bit-identical plans, regardless of how
	// often intermediate plans were derived along the way.
	names, times := multiKernelTrace(25000, 17)
	p := defaultP()
	opts := StreamOptions{ReservoirCap: 1024}

	a := feedIncremental(t, names, times, p, opts)
	planA, err := a.Plan()
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewIncrementalPlanner(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		b.Add(n, times[i])
		if i == 1000 || i == 9999 {
			if _, err := b.CurrentPlan(); err != nil {
				t.Fatal(err)
			}
		}
	}
	planB, err := b.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(planA, planB) {
		t.Fatal("plans differ despite identical stream and seed")
	}
}

func TestIncrementalReplanSchedule(t *testing.T) {
	// The doubling schedule, with the drift trigger armed, re-plans
	// O(log n) times when polled per invocation, not O(n).
	names, times := multiKernelTrace(32768, 19)
	ip, err := NewIncrementalPlanner(defaultP(), StreamOptions{ReservoirCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		ip.Add(n, times[i])
		if i >= 64 && i%64 == 0 {
			if _, err := ip.CurrentPlan(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// log2(32768/64) ≈ 9 doublings after the first few name-triggered
	// re-plans; anything below 20 proves amortization.
	if got := ip.Replans(); got > 20 || got < 3 {
		t.Fatalf("replans = %d, want O(log n) (3..20)", got)
	}
	// A cached plan is returned without re-deriving.
	before := ip.Replans()
	if _, err := ip.CurrentPlan(); err != nil {
		t.Fatal(err)
	}
	p1, err := ip.CurrentPlan()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ip.CurrentPlan()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("CurrentPlan re-derived a fresh plan while cached one was valid")
	}
	if ip.Replans() > before+1 {
		t.Fatalf("CurrentPlan re-planned repeatedly: %d -> %d", before, ip.Replans())
	}
}

func TestIncrementalDriftTrigger(t *testing.T) {
	ip, err := NewIncrementalPlanner(defaultP(), StreamOptions{ReservoirCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(23)
	for i := 0; i < 2000; i++ {
		ip.Add("k", 10*(1+0.01*r.NormFloat64()))
	}
	if _, err := ip.CurrentPlan(); err != nil {
		t.Fatal(err)
	}
	base := ip.Replans()
	// Small additions: no drift, no re-plan.
	for i := 0; i < 100; i++ {
		ip.Add("k", 10*(1+0.01*r.NormFloat64()))
	}
	if _, err := ip.CurrentPlan(); err != nil {
		t.Fatal(err)
	}
	if ip.Replans() != base {
		t.Fatalf("re-planned without drift (replans %d -> %d)", base, ip.Replans())
	}
	// A regime shift moves the running mean by far more than driftTol,
	// while the stream (3,600 rows) stays below its doubling point of
	// replanGrowth × 2,000: only the drift trigger can re-plan here.
	for i := 0; i < 1500; i++ {
		ip.Add("k", 100*(1+0.01*r.NormFloat64()))
	}
	if _, err := ip.CurrentPlan(); err != nil {
		t.Fatal(err)
	}
	if ip.Replans() != base+1 {
		t.Fatalf("drift trigger did not fire (replans %d -> %d)", base, ip.Replans())
	}
}

func TestIncrementalPlannerEmpty(t *testing.T) {
	ip, err := NewIncrementalPlanner(defaultP(), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.Plan(); err == nil {
		t.Fatal("expected error planning an empty stream")
	}
	bad := defaultP()
	bad.Epsilon = -1
	if _, err := NewIncrementalPlanner(bad, StreamOptions{}); err == nil {
		t.Fatal("expected params validation error")
	}
}

func TestIncrementalAddAllocFree(t *testing.T) {
	// Steady-state ingest (all names seen, reservoirs at capacity) must
	// not allocate.
	ip, err := NewIncrementalPlanner(defaultP(), StreamOptions{ReservoirCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	nameBytes := [][]byte{[]byte("gemm"), []byte("softmax"), []byte("layernorm")}
	r := rng.New(29)
	for i := 0; i < 3000; i++ {
		ip.AddBytes(nameBytes[i%3], 10*(1+0.1*r.NormFloat64()))
	}
	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		ip.AddBytes(nameBytes[i%3], float64(10+i%7))
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state AddBytes allocates %v per op", allocs)
	}
}

package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"stemroot/internal/rng"
)

// samePlan reports the first difference between two plans, comparing every
// float by its bits.
func samePlan(got, want *Plan) error {
	if got.Params != want.Params {
		return fmt.Errorf("params %+v, want %+v", got.Params, want.Params)
	}
	if math.Float64bits(got.PredictedError) != math.Float64bits(want.PredictedError) {
		return fmt.Errorf("PredictedError %v, want %v", got.PredictedError, want.PredictedError)
	}
	if len(got.Clusters) != len(want.Clusters) {
		return fmt.Errorf("%d clusters, want %d", len(got.Clusters), len(want.Clusters))
	}
	for i := range want.Clusters {
		g, w := &got.Clusters[i], &want.Clusters[i]
		if g.Kernel != w.Kernel || len(g.Samples) != len(w.Samples) || g.Population != w.Population || g.Members != nil {
			return fmt.Errorf("cluster %d: %q m=%d N=%d, want %q m=%d N=%d", i,
				g.Kernel, len(g.Samples), g.Population, w.Kernel, len(w.Samples), w.Population)
		}
		for _, f := range [][2]float64{{g.Weight, w.Weight}, {g.Mean, w.Mean}, {g.StdDev, w.StdDev}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				return fmt.Errorf("cluster %d: weight/mean/stddev %v, want %v", i, f[0], f[1])
			}
		}
		if len(g.Samples) != len(w.Samples) || (g.Samples == nil) != (w.Samples == nil) {
			return fmt.Errorf("cluster %d: %d samples (nil=%v), want %d (nil=%v)", i,
				len(g.Samples), g.Samples == nil, len(w.Samples), w.Samples == nil)
		}
		for j := range w.Samples {
			if g.Samples[j] != w.Samples[j] {
				return fmt.Errorf("cluster %d: sample %d is %d, want %d", i, j, g.Samples[j], w.Samples[j])
			}
		}
	}
	return nil
}

// checkAgainstNaive forces a re-plan and compares it, and the two rolling
// figures it leaves behind, with the oracle.
func checkAgainstNaive(t *testing.T, ctx string, ip *IncrementalPlanner) {
	t.Helper()
	want, wantEst, wantSampled, wantErr := naivePlan(ip)
	got, err := ip.Plan()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: Plan error %v, oracle error %v", ctx, err, wantErr)
	}
	if err != nil {
		return
	}
	if err := samePlan(got, want); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if math.Float64bits(ip.LastEstimate()) != math.Float64bits(wantEst) {
		t.Fatalf("%s: LastEstimate %v, want %v", ctx, ip.LastEstimate(), wantEst)
	}
	if math.Float64bits(ip.LastSampledTime()) != math.Float64bits(wantSampled) {
		t.Fatalf("%s: LastSampledTime %v, want %v", ctx, ip.LastSampledTime(), wantSampled)
	}
}

// oracleStream is a seeded random stream over `kernels` names with skewed
// popularity, so that at a small reservoir cap some kernels stay inside
// their reservoir while others overflow it many times. Kernel 0 is bimodal,
// kernel 1 is constant (all-equal times), and the rest are log-normal; when
// once is set, one more kernel appears exactly once, mid-stream.
func oracleStream(seed uint64, n, kernels int, once bool) ([]string, []float64) {
	r := rng.New(seed)
	names := make([]string, n)
	times := make([]float64, n)
	for i := range names {
		k := int(float64(kernels) * r.Float64() * r.Float64()) // low ids are hot
		switch {
		case once && i == n/2:
			names[i], times[i] = "seen_once", 7.5
			continue
		case k == 0:
			times[i] = 10 * (1 + 0.02*r.NormFloat64())
			if r.Intn(3) == 0 {
				times[i] *= 12
			}
		case k == 1:
			times[i] = 42
		default:
			times[i] = r.LogNormal(float64(k%5), 0.4)
		}
		names[i] = fmt.Sprintf("k%02d", k)
	}
	return names, times
}

// TestIncrementalPlanMatchesNaiveReference pins Plan — the cut array, the
// per-interval moments, the counting-sort permutation that stands in for the
// candidate pools, the bitset that stands in for the distinct map, and the
// reused sizing vectors — to the naive derivation, bit for bit, with a plan
// taken at every 1000th row so that reused scratch sees growing and
// shrinking interval counts.
func TestIncrementalPlanMatchesNaiveReference(t *testing.T) {
	flat := defaultP()
	flat.Flat = true
	tdist := defaultP()
	tdist.SmallSampleT = true
	tight := defaultP()
	tight.Epsilon = 0.005 // sizes reach the populations: the take-every-member branch

	cases := []struct {
		name    string
		p       Params
		cap     int
		n       int
		kernels int
		once    bool
	}{
		{"in-reservoir", defaultP(), 0, 6000, 6, true},
		{"mixed cap 64", defaultP(), 64, 12000, 12, true},
		{"cap 1", defaultP(), 1, 3000, 5, true},
		{"cap 2", defaultP(), 2, 3000, 5, false},
		{"single kernel", defaultP(), 64, 4000, 1, false},
		{"all-equal times", defaultP(), 64, 4000, 2, false},
		{"t-correction", tdist, 64, 8000, 8, true},
		{"flat", flat, 64, 8000, 8, true},
		{"tight epsilon", tight, 256, 8000, 8, true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			names, times := oracleStream(uint64(100+ci), tc.n, tc.kernels, tc.once)
			if tc.name == "all-equal times" {
				for i := range times {
					times[i] = 3.25
				}
			}
			ip, err := NewIncrementalPlanner(tc.p, StreamOptions{ReservoirCap: tc.cap})
			if err != nil {
				t.Fatal(err)
			}
			for i, nm := range names {
				ip.Add(nm, times[i])
				if (i+1)%1000 == 0 || i == 0 || i+1 == len(names) {
					checkAgainstNaive(t, fmt.Sprintf("row %d", i+1), ip)
				}
			}
		})
	}
}

// clonePlan copies a plan into memory of its own, slice for slice at the
// same lengths.
func clonePlan(p *Plan) *Plan {
	c := &Plan{Params: p.Params, PredictedError: p.PredictedError, Clusters: make([]PlanCluster, len(p.Clusters))}
	for i, pc := range p.Clusters {
		if pc.Samples != nil {
			pc.Samples = append(make([]int, 0, len(pc.Samples)), pc.Samples...)
		}
		c.Clusters[i] = pc
	}
	return c
}

// TestIncrementalCachedPlanSurvivesReplan: CurrentPlan hands out the cached
// plan itself, and the public plan aliases its sample slices, so a re-plan —
// which reuses all of the planner's scratch — must leave every plan returned
// before it exactly as it was.
func TestIncrementalCachedPlanSurvivesReplan(t *testing.T) {
	names, times := oracleStream(41, 40000, 10, true)
	ip, err := NewIncrementalPlanner(defaultP(), StreamOptions{ReservoirCap: 128})
	if err != nil {
		t.Fatal(err)
	}
	const first = 8000
	for i := 0; i < first; i++ {
		ip.Add(names[i], times[i])
	}
	cached, err := ip.CurrentPlan()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := ip.CurrentPlan(); again != cached {
		t.Fatal("CurrentPlan did not return the cached plan")
	}
	want := clonePlan(cached)

	// Past the doubling point, so the schedule itself re-plans; then force
	// two more over the same scratch.
	for i := first; i < len(names); i++ {
		ip.Add(names[i], times[i])
	}
	replans := ip.Replans()
	later, err := ip.CurrentPlan()
	if err != nil {
		t.Fatal(err)
	}
	if later == cached || ip.Replans() != replans+1 {
		t.Fatalf("no re-plan after the stream grew %dx", len(names)/first)
	}
	for i := 0; i < 2; i++ {
		if _, err := ip.Plan(); err != nil {
			t.Fatal(err)
		}
	}
	if err := samePlan(cached, want); err != nil {
		t.Fatalf("a re-plan changed a plan returned earlier: %v", err)
	}
	if err := samePlan(later, want); err == nil {
		t.Fatal("the later plan equals the first: the check above proves nothing")
	}
}

// allocatedBy returns the bytes f allocates, everything it frees included.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIncrementalPlanScratchBounded pins what a warm re-plan allocates: the
// plan it returns — measured as what a slice-for-slice copy of that plan
// allocates, so size-class rounding is the same on both sides — and at most
// 64 KiB more, with that excess not growing with the number of kernels. At
// this cap the per-interval pools and the distinct map of the first
// derivation came to 0.6 MiB at 8 kernels and 5.4 MiB at 64.
func TestIncrementalPlanScratchBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's own allocations break the pin")
	}
	const rcap = 1024
	excess := func(kernels int) (over int64, clusters int) {
		ip, err := NewIncrementalPlanner(defaultP(), StreamOptions{ReservoirCap: rcap})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(uint64(kernels))
		for i := 0; i < 4*rcap*kernels; i++ { // every kernel well over capacity
			k := i % kernels
			v := r.LogNormal(float64(k%5), 0.4)
			if i%3 == 0 {
				v *= 9 // a second mode, so ROOT splits
			}
			ip.Add(fmt.Sprintf("k%02d", k), v)
		}
		var plan *Plan
		for i := 0; i < 2; i++ { // the first call grows the scratch
			if plan, err = ip.Plan(); err != nil {
				t.Fatal(err)
			}
		}
		replan := allocatedBy(func() { plan, err = ip.Plan() })
		if err != nil {
			t.Fatal(err)
		}
		var clone *Plan
		planBytes := allocatedBy(func() { clone = clonePlan(plan) })
		runtime.KeepAlive(clone)
		t.Logf("%d kernels: %d clusters, re-plan allocates %d B, its plan is %d B", kernels, len(plan.Clusters), replan, planBytes)
		return int64(replan) - int64(planBytes), len(plan.Clusters)
	}
	few, fewClusters := excess(8)
	many, manyClusters := excess(64)
	if few > 64<<10 || many > 64<<10 {
		t.Fatalf("a warm re-plan allocates %d B (8 kernels) and %d B (64 kernels) beyond its plan, want at most 64 KiB", few, many)
	}
	// setBound's size vector, 8 bytes a cluster, is the one transient that
	// follows the plan; nothing may follow the reservoirs.
	if allowed := few + 16*int64(manyClusters-fewClusters); many > allowed {
		t.Fatalf("re-plan scratch grows with the kernel count: %d B beyond the plan at 8 kernels, %d B at 64 (allowed %d)", few, many, allowed)
	}
}

// TestIncrementalPlanScratchGrowsOnce pins when a re-plan sizes its
// per-kernel scratch: once, for the largest reservoir, before the first
// kernel is clustered. Two planners hold the same 16 reservoirs, 2,500 to
// 4,000 observations each; in one the sorted names come smallest first, so
// each outgrows the one before, in the other largest first. Their first
// plans are the same size and must allocate the same beyond it, to within
// 4 KiB for the draws' and the runtime's own bookkeeping. Scratch
// re-made at exactly each larger reservoir cost the ascending planner about
// seven more sets of it. allocatedBy reads the process-wide TotalAlloc, to
// which another goroutine's allocation can only add, so each figure is the
// fewest of three fresh planners.
func TestIncrementalPlanScratchGrowsOnce(t *testing.T) {
	const kernels = 16
	excess := func(size func(k int) int) int64 {
		first, planBytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			ip, err := NewIncrementalPlanner(defaultP(), StreamOptions{ReservoirCap: 4096})
			if err != nil {
				t.Fatal(err)
			}
			for k := range kernels {
				n := size(k)
				r := rng.New(uint64(n)) // a reservoir's values depend on its size alone
				for range n {
					v := r.LogNormal(1, 0.4)
					if r.Intn(3) == 0 {
						v *= 9 // a second mode, so ROOT splits
					}
					ip.Add(fmt.Sprintf("k%02d", k), v)
				}
			}
			var plan *Plan
			first = min(first, allocatedBy(func() { plan, err = ip.Plan() }))
			if err != nil {
				t.Fatal(err)
			}
			var clone *Plan
			planBytes = min(planBytes, allocatedBy(func() { clone = clonePlan(plan) }))
			runtime.KeepAlive(clone)
		}
		return int64(first) - int64(planBytes)
	}
	descending := excess(func(k int) int { return 2500 + 100*(kernels-1-k) })
	ascending := excess(func(k int) int { return 2500 + 100*k })
	if ascending > descending+4<<10 {
		t.Fatalf("a first re-plan allocates %d B beyond its plan when the largest reservoir comes last, %d B when it comes first", ascending, descending)
	}
}

// TestIncrementalPlanDeterministicAcrossWorkers: a re-plan fans ROOT out
// over up to Params.Workers workers, as a batch plan does, and since each
// name's split reads its own reservoir and nothing else, every plan and
// re-plan — and the two rolling figures each leaves — is bit-identical at
// any worker count.
func TestIncrementalPlanDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // or Workers is clamped to the box
	names, times := oracleStream(77, 40000, 12, true)
	run := func(workers int) (plans []*Plan, figures []float64, team int) {
		p := defaultP()
		p.Workers = workers
		ip, err := NewIncrementalPlanner(p, StreamOptions{ReservoirCap: 2048})
		if err != nil {
			t.Fatal(err)
		}
		for i, nm := range names {
			ip.Add(nm, times[i])
			if (i+1)%5000 == 0 || i == 100 {
				plan, err := ip.CurrentPlan()
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, plan)
				figures = append(figures, ip.LastEstimate(), ip.LastSampledTime())
			}
		}
		return plans, figures, len(ip.arena.team)
	}
	want, wantFigures, _ := run(1)
	for _, workers := range []int{2, 8} {
		got, figures, team := run(workers)
		if team != workers {
			t.Fatalf("Workers=%d: the last re-plan ran on %d workers", workers, team)
		}
		for i := range want {
			plan := *got[i]
			plan.Params.Workers = 1
			if err := samePlan(&plan, want[i]); err != nil {
				t.Fatalf("Workers=%d, plan %d: %v", workers, i, err)
			}
		}
		for i := range wantFigures {
			if math.Float64bits(figures[i]) != math.Float64bits(wantFigures[i]) {
				t.Fatalf("Workers=%d: rolling figure %d is %v, one worker %v", workers, i, figures[i], wantFigures[i])
			}
		}
	}
}

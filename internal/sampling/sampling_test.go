package sampling

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"stemroot/internal/core"
	"stemroot/internal/hwmodel"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// testWorkload returns a CASIO-style workload and its RTX 2080 profile.
func testWorkload(t testing.TB, name string) (*trace.Workload, *trace.Profile) {
	t.Helper()
	for _, w := range workloads.CASIO(1, 0.03) {
		if w.Name == name {
			prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
			return w, prof
		}
	}
	t.Fatalf("workload %s not found", name)
	return nil, nil
}

func rodiniaWorkload(t testing.TB, name string) (*trace.Workload, *trace.Profile) {
	t.Helper()
	ws, err := workloads.Suite(workloads.SuiteRodinia, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Name == name {
			prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
			return w, prof
		}
	}
	t.Fatalf("workload %s not found", name)
	return nil, nil
}

func TestPlanEstimateAndIndices(t *testing.T) {
	p := &Plan{
		Method: "x",
		Plan: core.Plan{Clusters: []core.PlanCluster{
			{Samples: []int{0, 1}, Weight: 2},
			{Samples: []int{1, 3}, Weight: 1},
		}},
	}
	times := []float64{10, 20, 30, 40}
	est := p.Estimate(func(i int) float64 { return times[i] })
	if est != 2*(10+20)+1*(20+40) {
		t.Fatalf("estimate = %v", est)
	}
	idxs := p.SampledIndices()
	if len(idxs) != 3 || idxs[0] != 0 || idxs[1] != 1 || idxs[2] != 3 {
		t.Fatalf("indices = %v", idxs)
	}
	if got := p.AppendSampledIndices([]int{9}); !slices.Equal(got, []int{9, 0, 1, 3}) {
		t.Fatalf("appended indices = %v, want [9 0 1 3]", got)
	}
}

func TestRandomPlan(t *testing.T) {
	w, prof := testWorkload(t, "bert_infer")
	r := &Random{Frac: 0.01, Seed: 1}
	plan, err := r.Plan(w, prof)
	if err != nil {
		t.Fatal(err)
	}
	n := len(plan.SampledIndices())
	want := float64(w.Len()) * 0.01
	if float64(n) < want/3 || float64(n) > want*3 {
		t.Fatalf("random sampled %d of %d, expected ~%v", n, w.Len(), want)
	}
	out, err := Evaluate(plan, w, prof)
	if err != nil {
		t.Fatal(err)
	}
	if out.Speedup < 10 {
		t.Fatalf("random speedup = %v, want substantial", out.Speedup)
	}
}

func TestRandomValidation(t *testing.T) {
	w, prof := testWorkload(t, "bert_infer")
	if _, err := (&Random{Frac: 0}).Plan(w, prof); err == nil {
		t.Fatal("expected error for frac=0")
	}
	if _, err := (&Random{Frac: 1.5}).Plan(w, prof); err == nil {
		t.Fatal("expected error for frac>1")
	}
	empty := &trace.Workload{}
	if _, err := (&Random{Frac: 0.1}).Plan(empty, nil); err == nil {
		t.Fatal("expected error for empty workload")
	}
}

func TestRandomNeverEmptyPlan(t *testing.T) {
	// A tiny fraction on a small workload must still produce >= 1 sample.
	w := &trace.Workload{Name: "tiny", Seed: 9}
	for i := 0; i < 5; i++ {
		w.Invs = append(w.Invs, trace.Invocation{Seq: i, Name: "k"})
	}
	plan, err := (&Random{Frac: 1e-9, Seed: 1}).Plan(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.SampledIndices()) < 1 {
		t.Fatal("plan has no samples")
	}
}

func TestPKAPlanClusterCount(t *testing.T) {
	w, prof := testWorkload(t, "bert_infer")
	pka := NewPKA(1)
	plan, err := pka.Plan(w, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) < 2 || len(plan.Clusters) > 20 {
		t.Fatalf("PKA produced %d clusters", len(plan.Clusters))
	}
	// One sample per cluster, weights sum to the workload size.
	var wsum float64
	for _, c := range plan.Clusters {
		if len(c.Samples) != 1 {
			t.Fatal("PKA should sample one kernel per cluster")
		}
		wsum += c.Weight
	}
	if math.Abs(wsum-float64(w.Len())) > 0.5 {
		t.Fatalf("PKA weights sum to %v, want %d", wsum, w.Len())
	}
}

func TestPKAFirstChronological(t *testing.T) {
	w, prof := rodiniaWorkload(t, "heartwall")
	plan, err := NewPKA(1).Plan(w, prof)
	if err != nil {
		t.Fatal(err)
	}
	// heartwall's kernels share static metrics, so PKA lumps them together
	// and its first-chronological pick is the anomalous first call —
	// yielding the paper's catastrophic underestimate.
	out, err := Evaluate(plan, w, prof)
	if err != nil {
		t.Fatal(err)
	}
	if out.ErrorPct < 50 {
		t.Fatalf("untuned PKA on heartwall error = %v%%, expected catastrophic", out.ErrorPct)
	}

	// Hand-tuned (random pick) improves it dramatically, as in §5.1.
	tuned := NewPKA(1)
	tuned.TunedWorkloads = map[string]bool{"heartwall": true}
	tplan, err := tuned.Plan(w, prof)
	if err != nil {
		t.Fatal(err)
	}
	tout, err := Evaluate(tplan, w, prof)
	if err != nil {
		t.Fatal(err)
	}
	if tout.ErrorPct >= out.ErrorPct {
		t.Fatalf("tuning did not help: %v%% vs %v%%", tout.ErrorPct, out.ErrorPct)
	}
}

func TestSievePlan(t *testing.T) {
	w, prof := rodiniaWorkload(t, "gaussian")
	plan, err := NewSieve(1).Plan(w, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) == 0 {
		t.Fatal("empty sieve plan")
	}
	out, err := Evaluate(plan, w, prof)
	if err != nil {
		t.Fatal(err)
	}
	// Instruction-count weighting makes Sieve usable on gaussian (whose
	// instruction counts track the shrinking work), unlike PKA.
	if out.ErrorPct > 60 {
		t.Fatalf("sieve gaussian error = %v%%", out.ErrorPct)
	}
}

func TestSieveStratifiesIrregularKernels(t *testing.T) {
	w, prof := rodiniaWorkload(t, "gaussian")
	plan, _ := NewSieve(1).Plan(w, prof)
	// gaussian has 2 kernel names but high instruction-count variation:
	// Sieve must produce more strata than names.
	if len(plan.Clusters) <= 2 {
		t.Fatalf("sieve produced %d strata for gaussian", len(plan.Clusters))
	}
}

// TestSieveCTATieIsDeterministic pins the representative when two CTA
// configurations are equally common in a stratum: the earliest member wins,
// on every run, rather than whichever configuration map iteration visits
// first.
func TestSieveCTATieIsDeterministic(t *testing.T) {
	w := &trace.Workload{Name: "tie", Seed: 1, Invs: []trace.Invocation{
		{Seq: 0, Name: "k", Block: trace.Dim3{X: 128, Y: 1, Z: 1}, InstrsPerWarp: 1000},
		{Seq: 1, Name: "k", Block: trace.Dim3{X: 256, Y: 1, Z: 1}, InstrsPerWarp: 1000},
	}}
	for run := 0; run < 100; run++ {
		plan, err := NewSieve(1).Plan(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Clusters) != 1 || plan.Clusters[0].Samples[0] != 0 {
			t.Fatalf("run %d: plan %+v, want one stratum represented by invocation 0", run, plan.Clusters)
		}
	}
}

func TestPhotonPlan(t *testing.T) {
	w, prof := testWorkload(t, "bert_infer")
	plan, err := (&Photon{}).Plan(w, prof)
	if err != nil {
		t.Fatal(err)
	}
	// Photon should select far fewer representatives than invocations but
	// more than one per kernel name (contexts shift BBVs).
	names := len(w.KernelNames())
	if len(plan.Clusters) <= names {
		t.Fatalf("photon found %d reps for %d names — contexts not separated", len(plan.Clusters), names)
	}
	if len(plan.Clusters) > w.Len()/10 {
		t.Fatalf("photon selected too many reps: %d of %d", len(plan.Clusters), w.Len())
	}
	var wsum float64
	for _, c := range plan.Clusters {
		wsum += c.Weight
	}
	if math.Abs(wsum-float64(w.Len())) > 0.5 {
		t.Fatalf("photon weights sum to %v, want %d", wsum, w.Len())
	}
}

func TestSTEMPlanMeetsErrorBound(t *testing.T) {
	for _, name := range []string{"bert_infer", "dlrm", "resnet50_infer"} {
		w, prof := testWorkload(t, name)
		stem := NewSTEMRoot(1)
		plan, err := stem.Plan(w, prof)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Evaluate(plan, w, prof)
		if err != nil {
			t.Fatal(err)
		}
		if out.ErrorPct > 5 {
			t.Fatalf("%s: STEM error %v%% exceeds 5%% bound", name, out.ErrorPct)
		}
		if out.Speedup < 2 {
			t.Fatalf("%s: STEM speedup only %v", name, out.Speedup)
		}
	}
}

// smallWorkload is an n-row profile over the given kernel names, in turn,
// whose times have one mode per name and a slow tail on every fifth row, so
// ROOT splits and a cluster is drawn from rather than copied whole.
func smallWorkload(seed uint64, n int, names ...string) (*trace.Workload, *trace.Profile) {
	w := &trace.Workload{Name: "small", Seed: seed, Invs: make([]trace.Invocation, n)}
	prof := &trace.Profile{TimeUS: make([]float64, n)}
	for i := range w.Invs {
		w.Invs[i] = trace.Invocation{Seq: i, Name: names[i%len(names)]}
		prof.TimeUS[i] = 10*float64(1+i%len(names)) + float64(i%7)/8
		if i%5 == 0 {
			prof.TimeUS[i] *= 4
		}
	}
	return w, prof
}

// TestSTEMPlanAllocs pins what a STEM plan of an eight-row profile (a DSE
// cell's) allocates: the plan it returns, its clusters, one index array and
// one sample array. core builds straight into the returned plan; a copy of a
// plan core allocated would be a fifth object, dead on return. Planned into
// a plan that already holds those arrays, it allocates nothing.
func TestSTEMPlanAllocs(t *testing.T) {
	w := &trace.Workload{Name: "small", Seed: 3, Invs: make([]trace.Invocation, 8)}
	prof := &trace.Profile{TimeUS: make([]float64, len(w.Invs))}
	for i := range w.Invs {
		w.Invs[i] = trace.Invocation{Seq: i, Name: []string{"gemm", "relu"}[i%2]}
		prof.TimeUS[i] = 10*float64(1+i%2) + float64(i)/8
	}
	stem := NewSTEMRoot(1)
	run := func() {
		if _, err := stem.Plan(w, prof); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow an idle arena to this shape
	if allocs := testing.AllocsPerRun(20, run); allocs > 4 {
		t.Fatalf("a STEM plan of %d rows allocates %.0f objects, want the plan's own four", len(w.Invs), allocs)
	}
	var dst Plan
	into := func() {
		if err := stem.PlanInto(&dst, w, prof); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, into); allocs != 0 {
		t.Fatalf("a STEM plan of %d rows into a plan that holds its arrays allocates %.0f objects, want 0", len(w.Invs), allocs)
	}
}

// exported is the part of a plan its callers see: everything but the arrays
// core keeps for reuse.
func exported(p *Plan) Plan {
	return Plan{Method: p.Method, Plan: core.Plan{Params: p.Params, Clusters: p.Clusters, PredictedError: p.PredictedError}}
}

// deepCopy is a plan that shares no array with p.
func deepCopy(p *Plan) Plan {
	c := exported(p)
	c.Clusters = slices.Clone(p.Clusters)
	for i := range c.Clusters {
		c.Clusters[i].Members = slices.Clone(c.Clusters[i].Members)
		c.Clusters[i].Samples = slices.Clone(c.Clusters[i].Samples)
	}
	return c
}

// TestPlanIntoReusesItsArrays pins PlanInto against Plan: planning two
// profiles of different shapes, in turn, into one plan gives each time what
// a fresh plan of that profile holds, and once the plan has held both
// shapes a call allocates nothing. A plan Plan returned shares no array with
// any later plan, so no later call writes to it.
func TestPlanIntoReusesItsArrays(t *testing.T) {
	stem := NewSTEMRoot(1)
	small, smallProf := smallWorkload(3, 40, "gemm", "relu")
	large, largeProf := smallWorkload(5, 300, "gemm", "relu", "softmax")
	fresh := func(w *trace.Workload, prof *trace.Profile) *Plan {
		p, err := stem.Plan(w, prof)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wantSmall := fresh(small, smallProf)
	kept := deepCopy(wantSmall)
	fresh(smallWorkload(3, 40, "relu", "softmax", "gemm")) // the same rows, laid out otherwise
	wantLarge := fresh(large, largeProf)
	if len(wantLarge.Clusters) <= len(wantSmall.Clusters) || wantLarge.TotalSamples() >= len(large.Invs) {
		t.Fatalf("profiles too plain to test reuse: %d and %d clusters, %d samples of %d rows",
			len(wantSmall.Clusters), len(wantLarge.Clusters), wantLarge.TotalSamples(), len(large.Invs))
	}

	var dst Plan
	for i, tc := range []struct {
		w    *trace.Workload
		prof *trace.Profile
		want *Plan
	}{{small, smallProf, wantSmall}, {large, largeProf, wantLarge}, {small, smallProf, wantSmall}, {large, largeProf, wantLarge}} {
		if err := stem.PlanInto(&dst, tc.w, tc.prof); err != nil {
			t.Fatal(err)
		}
		if got, want := exported(&dst), exported(tc.want); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: the plan built into a reused plan differs from a fresh one\n got %+v\nwant %+v", i, got, want)
		}
	}
	alternate := func() {
		if err := stem.PlanInto(&dst, small, smallProf); err != nil {
			t.Fatal(err)
		}
		if err := stem.PlanInto(&dst, large, largeProf); err != nil {
			t.Fatal(err)
		}
	}
	// The race runtime's own allocations break this pin.
	if allocs := testing.AllocsPerRun(10, alternate); allocs != 0 && !raceEnabled {
		t.Fatalf("planning into a plan that has held both shapes allocates %.0f objects, want 0", allocs)
	}
	fresh(smallWorkload(3, 40, "relu", "softmax", "gemm"))
	if got := exported(wantSmall); !reflect.DeepEqual(got, kept) {
		t.Fatalf("a plan Plan returned was written by a later call\n got %+v\nwant %+v", got, kept)
	}
}

func TestSTEMBeatsBaselinesOnHeartwall(t *testing.T) {
	w, prof := rodiniaWorkload(t, "heartwall")
	stem := NewSTEMRoot(1)
	splan, err := stem.Plan(w, prof)
	if err != nil {
		t.Fatal(err)
	}
	sout, _ := Evaluate(splan, w, prof)
	if sout.ErrorPct > 5 {
		t.Fatalf("STEM heartwall error = %v%%", sout.ErrorPct)
	}
}

func TestSTEMRequiresProfile(t *testing.T) {
	w, _ := testWorkload(t, "bert_infer")
	if _, err := NewSTEMRoot(1).Plan(w, nil); err == nil {
		t.Fatal("expected error without profile")
	}
	bad := &trace.Profile{TimeUS: []float64{1}}
	if _, err := NewSTEMRoot(1).Plan(w, bad); err == nil {
		t.Fatal("expected error for mismatched profile")
	}
}

func TestSTEMFlatAblation(t *testing.T) {
	// ROOT's fine-grained clustering must reduce simulated time (higher
	// speedup) versus flat per-name STEM at comparable error.
	w, prof := testWorkload(t, "resnet50_infer")
	full := NewSTEMRoot(1)
	flat := NewSTEMRoot(1)
	flat.Params.Flat = true

	fp, err := full.Plan(w, prof)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := flat.Plan(w, prof)
	if err != nil {
		t.Fatal(err)
	}
	fo, _ := Evaluate(fp, w, prof)
	lo, _ := Evaluate(lp, w, prof)
	if fo.ErrorPct > 5 || lo.ErrorPct > 5 {
		t.Fatalf("errors exceed bound: root=%v flat=%v", fo.ErrorPct, lo.ErrorPct)
	}
	if fo.Speedup <= lo.Speedup {
		t.Fatalf("ROOT speedup %v should beat flat %v", fo.Speedup, lo.Speedup)
	}
}

func TestEvaluateTimesErrors(t *testing.T) {
	if _, err := EvaluateTimes(nil, []float64{1}); err == nil {
		t.Fatal("expected error for nil plan")
	}
	p := &Plan{Plan: core.Plan{Clusters: []core.PlanCluster{{Samples: []int{5}, Weight: 1}}}}
	if _, err := EvaluateTimes(p, []float64{1}); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
}

func TestAggregates(t *testing.T) {
	outs := []Outcome{
		{Speedup: 2, ErrorPct: 1},
		{Speedup: 6, ErrorPct: 3},
	}
	if m := MeanErrorPct(outs); m != 2 {
		t.Fatalf("mean error = %v", m)
	}
	if h := HarmonicMeanSpeedup(outs); math.Abs(h-3) > 1e-12 {
		t.Fatalf("harmonic speedup = %v, want 3", h)
	}
	if MeanErrorPct(nil) != 0 || HarmonicMeanSpeedup(nil) != 0 {
		t.Fatal("empty aggregates should be zero")
	}
}

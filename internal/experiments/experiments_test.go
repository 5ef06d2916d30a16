package experiments

import (
	"strings"
	"testing"

	"stemroot/internal/workloads"
)

func TestSuiteComparisonRodinia(t *testing.T) {
	cfg := Quick()
	cfg.Reps = 1
	rows, err := SuiteComparison(cfg, workloads.SuiteRodinia)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13*5 {
		t.Fatalf("expected 13 workloads x 5 methods rows, got %d", len(rows))
	}
	sums := Summarize(rows)
	byName := make(map[string]MethodSummary)
	for _, s := range sums {
		byName[s.Method] = s
	}
	stem := byName["stem"]
	if stem.ErrorPct > 5 {
		t.Fatalf("STEM rodinia error %v%% exceeds bound", stem.ErrorPct)
	}
	// Paper Table 3 shape: STEM's error far below PKA's and below Sieve's.
	if pka := byName["pka"]; stem.ErrorPct >= pka.ErrorPct/2 {
		t.Fatalf("STEM (%v%%) should be far below PKA (%v%%)", stem.ErrorPct, pka.ErrorPct)
	}
	if stem.Speedup <= 1 {
		t.Fatalf("STEM speedup %v", stem.Speedup)
	}
}

func TestSuiteComparisonCASIO(t *testing.T) {
	cfg := Quick()
	cfg.Reps = 1
	rows, err := SuiteComparison(cfg, workloads.SuiteCASIO)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]MethodSummary)
	for _, s := range Summarize(rows) {
		byName[s.Method] = s
	}
	stem := byName["stem"]
	if stem.ErrorPct > 2 {
		t.Fatalf("STEM CASIO error %v%%, paper reports near-zero", stem.ErrorPct)
	}
	// Qualitative ordering of Table 3 on CASIO: STEM < Photon < Sieve/PKA.
	if photon := byName["photon"]; !(stem.ErrorPct < photon.ErrorPct) {
		t.Fatalf("STEM (%v%%) should beat Photon (%v%%)", stem.ErrorPct, photon.ErrorPct)
	}
	if pka := byName["pka"]; !(byName["photon"].ErrorPct < pka.ErrorPct) {
		t.Fatalf("Photon (%v%%) should beat PKA (%v%%)", byName["photon"].ErrorPct, pka.ErrorPct)
	}
}

func TestSuiteComparisonHuggingFaceMethods(t *testing.T) {
	cfg := Quick()
	cfg.Reps = 1
	rows, err := SuiteComparison(cfg, workloads.SuiteHuggingFace)
	if err != nil {
		t.Fatal(err)
	}
	// Only Random and STEM run on HF (baselines are N/A per Table 3).
	methods := make(map[string]bool)
	for _, r := range rows {
		methods[r.Method] = true
	}
	if len(methods) != 2 || methods["pka"] || methods["sieve"] || methods["photon"] {
		t.Fatalf("HF methods = %v, want only random and stem", methods)
	}
	byName := make(map[string]MethodSummary)
	for _, s := range Summarize(rows) {
		byName[s.Method] = s
	}
	stem := byName["stem"]
	if stem.ErrorPct > 5 {
		t.Fatalf("STEM HF error %v%%", stem.ErrorPct)
	}
	var randName string
	for m := range methods {
		if m != "stem" {
			randName = m
		}
	}
	if rnd := byName[randName]; stem.ErrorPct >= rnd.ErrorPct {
		t.Fatalf("STEM (%v%%) should beat random (%v%%)", stem.ErrorPct, rnd.ErrorPct)
	}
}

func TestTable3RenderAllSuites(t *testing.T) {
	cfg := Quick()
	cfg.Reps = 1
	res, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suites) != 3 {
		t.Fatalf("suites = %v", res.Suites)
	}
	out := res.Render()
	for _, want := range []string{"rodinia", "casio", "huggingface", "stem", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if fig7 := RenderFigure7(res.PerWorkload["rodinia"]); !strings.Contains(fig7, "heartwall") {
		t.Fatal("figure 7 render missing workloads")
	}
	if fig8 := RenderFigure8(res.PerWorkload["casio"]); !strings.Contains(fig8, "error") {
		t.Fatal("figure 8 render missing header")
	}
	if fig9 := RenderFigure9(res.PerWorkload["casio"]); !strings.Contains(fig9, "speedup") {
		t.Fatal("figure 9 render missing header")
	}
}

func TestFigure1Heterogeneity(t *testing.T) {
	cfg := Quick()
	entries, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("expected 4 histograms, got %d", len(entries))
	}
	byKernel := make(map[string]Figure1Entry)
	for _, e := range entries {
		byKernel[e.Kernel] = e
	}
	if e := byKernel["bn_fw_inf_CUDNN"]; e.Modes != 3 {
		t.Fatalf("bn_fw_inf modes = %d, want 3", e.Modes)
	}
	if e := byKernel["sgemm_128x64_nn"]; e.Modes != 2 {
		t.Fatalf("sgemm modes = %d, want 2", e.Modes)
	}
	if e := byKernel["max_pool_fw"]; e.CoV < 0.1 {
		t.Fatalf("max_pool CoV = %v, want wide", e.CoV)
	}
	if out := RenderFigure1(entries); !strings.Contains(out, "#") {
		t.Fatal("histogram render empty")
	}
}

func TestFigure10SignatureBlindness(t *testing.T) {
	cfg := Quick()
	cs, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 {
		t.Fatal("no clusters")
	}
	// At least one PKA cluster must hide a wide time spread (paper: 2-11us
	// treated as identical).
	var worstPKA float64
	for _, c := range cs {
		if c.Method == "pka" && c.Spread > worstPKA {
			worstPKA = c.Spread
		}
	}
	if worstPKA < 1.5 {
		t.Fatalf("PKA's widest 'identical' cluster spread only %.2fx", worstPKA)
	}
	if out := RenderFigure10(cs); !strings.Contains(out, "pka") {
		t.Fatal("render missing method")
	}
}

func TestFigure11Tradeoff(t *testing.T) {
	cfg := Quick()
	cfg.Reps = 1
	pts, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("expected 4 sweep points, got %d", len(pts))
	}
	// Speedup must increase with epsilon. The speedup is now measured in
	// simulated cycles (full simulation vs sampled simulation), the figure's
	// actual cost axis.
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup <= pts[i-1].Speedup {
			t.Fatalf("speedup not increasing with eps: %+v", pts)
		}
	}
	// Measured error tracks each bound. Plans are sized on profile times
	// but scored against simulated cycles (the same cross-domain transfer
	// Table 4 exercises), so allow 25% relative slack on the statistical
	// bound rather than demanding it exactly.
	for _, p := range pts {
		if p.ErrorPct > p.Epsilon*100*1.25 {
			t.Fatalf("eps=%v measured error %v%% exceeds bound (with slack)", p.Epsilon, p.ErrorPct)
		}
	}
	if out := RenderFigure11(pts); !strings.Contains(out, "25%") {
		t.Fatal("render missing sweep point")
	}
}

func TestKKTAblationReduction(t *testing.T) {
	cfg := Quick()
	res, err := KKTAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §3.3: joint sizing reduces simulated time ~2-3x on average.
	if res.Mean < 1.5 {
		t.Fatalf("joint KKT mean reduction only %.2fx", res.Mean)
	}
	if out := res.Render(); !strings.Contains(out, "mean") {
		t.Fatal("render missing mean")
	}
}

func TestRootKAblationInsensitive(t *testing.T) {
	cfg := Quick()
	pts, err := RootKAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.ErrorPct > 5 {
			t.Fatalf("k=%d error %v%% exceeds bound", p.K, p.ErrorPct)
		}
	}
	if out := RenderRootK(pts); !strings.Contains(out, "k=3") {
		t.Fatal("render missing k")
	}
}

func TestRootAblation(t *testing.T) {
	cfg := Quick()
	res, err := RootAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RootSpeedup <= res.FlatSpeedup {
		t.Fatalf("ROOT speedup %v should beat flat %v", res.RootSpeedup, res.FlatSpeedup)
	}
	if res.RootErrorPct > 5 || res.FlatErrorPct > 5 {
		t.Fatalf("errors exceed bound: %+v", res)
	}
	if out := res.Render(); !strings.Contains(out, "STEM+ROOT") {
		t.Fatal("render incomplete")
	}
}

func TestTable5OverheadShape(t *testing.T) {
	cfg := Quick()
	res, err := Table5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, suite := range []string{"rodinia", "casio"} {
		f := res.Factor[suite]
		if !(f["nsys"] < f["bbv"] && f["bbv"] < f["nvbit"] && f["nvbit"] < f["ncu"]) {
			t.Fatalf("%s overhead ordering wrong: %+v", suite, f)
		}
	}
	// NSYS stays cheap everywhere; heavyweight tools are far more
	// expensive than NSYS on the HF suite (at paper scale they become
	// N/A; the Quick scale keeps them finite but still enormous).
	hf := res.Factor["huggingface"]
	if hf["nsys"] < 0 || hf["nsys"] > 20 {
		t.Fatalf("nsys should stay feasible on HF: %v", hf["nsys"])
	}
	if hf["ncu"] > 0 && hf["ncu"] < 10*hf["nsys"] {
		t.Fatalf("NCU should dwarf NSYS on HF: %+v", hf)
	}
	if out := res.Render(); !strings.Contains(out, "nsys") {
		t.Fatal("render missing tools")
	}
}

func TestFigure13CrossGPU(t *testing.T) {
	cfg := Quick()
	cfg.Reps = 1
	res, err := Figure13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 7 { // 6 HF + dlrm
		t.Fatalf("expected 7 workloads, got %d", len(res.Points))
	}
	// Paper: mean error ~5.46% with dlrm worst. Allow generous slack on
	// the mean; insist the study stays usable (<15%).
	if res.MeanPct > 15 {
		t.Fatalf("cross-GPU mean error %v%% too large", res.MeanPct)
	}
	if out := res.Render(); !strings.Contains(out, "worst") {
		t.Fatal("render incomplete")
	}
}

func TestFigure14MetricsNearZero(t *testing.T) {
	cfg := Quick()
	res, err := Figure14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPct > 10 {
		t.Fatalf("max metric error %v%%, paper reports near-zero", res.MaxPct)
	}
	if out := res.Render(); !strings.Contains(out, "l2_read_hit_rate") {
		t.Fatal("render missing metric")
	}
}

func TestTable4DSE(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator DSE is slow")
	}
	cfg := Quick()
	cfg.Reps = 1
	cfg.DSEMaxCalls = 25
	res, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 5 {
		t.Fatalf("variants = %v", res.Variants)
	}
	// STEM's DSE error must stay low and below PKA's on every variant.
	for _, v := range res.Variants {
		stem := res.ErrorPct[v]["stem"]
		pka := res.ErrorPct[v]["pka"]
		if stem > 12 {
			t.Fatalf("%s: STEM error %v%%", v, stem)
		}
		if stem >= pka {
			t.Fatalf("%s: STEM (%v%%) should beat PKA (%v%%)", v, stem, pka)
		}
	}
	if len(res.Figure12) == 0 {
		t.Fatal("no figure 12 bars")
	}
	if out := res.Render(); !strings.Contains(out, "cache_x2") {
		t.Fatal("render missing variant")
	}
	if out := RenderFigure12(res.Figure12); !strings.Contains(out, "full cycles") {
		t.Fatal("figure 12 render missing header")
	}
}

func TestFlushAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator ablation is slow")
	}
	cfg := Quick()
	cfg.DSEMaxCalls = 20
	res, err := FlushAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stem := res.ErrorPct["stem"]
	delta := stem[1] - stem[0]
	if delta < 0 {
		delta = -delta
	}
	// §6.2: flushing L2 between kernels changes STEM's error only
	// marginally.
	if delta > 5 {
		t.Fatalf("flush ablation delta %v%% too large", delta)
	}
	if out := res.Render(); !strings.Contains(out, "flushed") {
		t.Fatal("render incomplete")
	}
}

func TestMultiGPUExtension(t *testing.T) {
	cfg := Quick()
	pts, err := MultiGPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("expected 3 rank counts, got %d", len(pts))
	}
	for _, p := range pts {
		if p.STEMErrorPct > 5 {
			t.Fatalf("ranks=%d: STEM makespan error %v%%", p.Ranks, p.STEMErrorPct)
		}
		if p.STEMErrorPct >= p.RandomErrorPct {
			t.Fatalf("ranks=%d: STEM (%v%%) should beat naive (%v%%)",
				p.Ranks, p.STEMErrorPct, p.RandomErrorPct)
		}
		if p.STEMSpeedup < 2 {
			t.Fatalf("ranks=%d: speedup %v", p.Ranks, p.STEMSpeedup)
		}
	}
	if out := RenderMultiGPU(pts); !strings.Contains(out, "ranks") {
		t.Fatal("render incomplete")
	}
}

func TestWarmupAblationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator ablation is slow")
	}
	cfg := Quick()
	cfg.DSEMaxCalls = 15
	pts, err := WarmupAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("expected 4 warmup settings, got %d", len(pts))
	}
	// Inter-kernel reuse is negligible by design, so warmup must not
	// change accuracy much — the paper's conclusion.
	base := pts[0].ErrorPct
	for _, p := range pts[1:] {
		delta := p.ErrorPct - base
		if delta < 0 {
			delta = -delta
		}
		if delta > 5 {
			t.Fatalf("warmup=%d moved error by %v%%", p.Warmup, delta)
		}
		if p.WarmupSharePct <= 0 {
			t.Fatalf("warmup=%d reported no cost", p.Warmup)
		}
	}
	if out := RenderWarmup(pts); !strings.Contains(out, "warmup") {
		t.Fatal("render incomplete")
	}
}

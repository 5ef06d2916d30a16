// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end to end and reports
// its headline quantities (error %, speedup, overhead factors) as custom
// metrics, so `go test -bench . -benchmem` reproduces the paper's rows.
// Run `go test -bench <name> -v` to also print the rendered tables.
package stemroot_test

import (
	"fmt"
	"testing"

	"stemroot"
	"stemroot/internal/experiments"
	"stemroot/internal/rng"
	"stemroot/internal/workloads"
)

// benchConfig scales experiments for benchmarking: bigger than unit tests,
// smaller than a full paper-scale run (use cmd/experiments -scale paper for
// that).
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Reps = 1
	cfg.CASIOScale = 0.05
	cfg.HFScale = 0.02
	return cfg
}

func BenchmarkFigure1(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		entries, err := experiments.Figure1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderFigure1(entries))
			for _, e := range entries {
				if e.Kernel == "bn_fw_inf_CUDNN" {
					b.ReportMetric(float64(e.Modes), "bn_modes")
				}
			}
		}
	}
}

func benchSuite(b *testing.B, suite string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SuiteComparison(cfg, suite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\nfig7/8 (%s):\n%s", suite, experiments.RenderFigure8(rows))
			for _, s := range experiments.Summarize(rows) {
				if s.Method == "stem" {
					b.ReportMetric(s.ErrorPct, "stem_err_pct")
					b.ReportMetric(s.Speedup, "stem_speedup")
				}
			}
		}
	}
}

// BenchmarkTable3* regenerate Table 3 and the per-workload series behind
// Figures 7, 8, and 9, one suite per benchmark.
func BenchmarkTable3Rodinia(b *testing.B)     { benchSuite(b, workloads.SuiteRodinia) }
func BenchmarkTable3CASIO(b *testing.B)       { benchSuite(b, workloads.SuiteCASIO) }
func BenchmarkTable3HuggingFace(b *testing.B) { benchSuite(b, workloads.SuiteHuggingFace) }

func BenchmarkFigure9Scatter(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SuiteComparison(cfg, workloads.SuiteCASIO)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderFigure9(rows))
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cs, err := experiments.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderFigure10(cs))
			var worst float64
			for _, c := range cs {
				if c.Method == "pka" && c.Spread > worst {
					worst = c.Spread
				}
			}
			b.ReportMetric(worst, "pka_worst_spread_x")
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderFigure11(pts))
			b.ReportMetric(pts[len(pts)-1].Speedup, "eps25_speedup")
			b.ReportMetric(pts[0].ErrorPct, "eps3_err_pct")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	cfg := benchConfig()
	cfg.DSEMaxCalls = 30
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
			b.ReportMetric(res.ErrorPct["baseline"]["stem"], "stem_baseline_err_pct")
			b.ReportMetric(res.ErrorPct["cache_x2"]["stem"], "stem_cachex2_err_pct")
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	cfg := benchConfig()
	cfg.DSEMaxCalls = 25
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderFigure12(res.Figure12))
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
			b.ReportMetric(res.MeanPct, "h100_to_h200_err_pct")
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
			b.ReportMetric(res.MaxPct, "max_metric_err_pct")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
			b.ReportMetric(res.Factor["casio"]["nsys"], "nsys_casio_x")
			b.ReportMetric(res.Factor["casio"]["ncu"], "ncu_casio_x")
		}
	}
}

func BenchmarkAblationKKT(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.KKTAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
			b.ReportMetric(res.Mean, "indep_over_joint_x")
		}
	}
}

func BenchmarkAblationRootK(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RootKAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderRootK(pts))
		}
	}
}

func BenchmarkAblationRoot(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RootAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
			b.ReportMetric(res.RootSpeedup/res.FlatSpeedup, "root_over_flat_x")
		}
	}
}

func BenchmarkAblationFlush(b *testing.B) {
	cfg := benchConfig()
	cfg.DSEMaxCalls = 20
	for i := 0; i < b.N; i++ {
		res, err := experiments.FlushAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
			stem := res.ErrorPct["stem"]
			b.ReportMetric(stem[1]-stem[0], "stem_flush_delta_pct")
		}
	}
}

// BenchmarkSamplePlan measures the cost of the core STEM+ROOT planning step
// itself — the paper's scalability claim is that this is near-linear in the
// number of invocations.
func BenchmarkSamplePlan(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(planSize(n), func(b *testing.B) {
			names, times := syntheticPlanProfile(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stemroot.Sample(names, times, stemroot.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func planSize(n int) string { return fmt.Sprintf("%dk", n/1000) }

func syntheticPlanProfile(n int) ([]string, []float64) {
	r := rng.New(99)
	names := make([]string, n)
	times := make([]float64, n)
	kernelNames := []string{"gemm", "softmax", "layernorm", "pool", "relu", "dropout"}
	for i := range names {
		k := i % len(kernelNames)
		names[i] = kernelNames[k]
		base := float64(10 * (k + 1))
		if i%7 == 0 {
			base *= 3 // second context
		}
		times[i] = base * (1 + 0.05*r.NormFloat64())
		if times[i] < 0 {
			times[i] = 0
		}
	}
	return names, times
}

func BenchmarkExtensionMultiGPU(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.MultiGPU(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderMultiGPU(pts))
			for _, p := range pts {
				if p.Ranks == 8 {
					b.ReportMetric(p.STEMErrorPct, "stem_8rank_err_pct")
				}
			}
		}
	}
}

// BenchmarkSuiteComparisonParallel measures the experiments-layer workload
// fan-out across worker-pool sizes (j1 = serial baseline). Results are
// bit-identical at every size; only wall-clock changes.
func BenchmarkSuiteComparisonParallel(b *testing.B) {
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", jobs), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Sim.Workers = jobs
			for i := 0; i < b.N; i++ {
				if _, err := experiments.SuiteComparison(cfg, workloads.SuiteRodinia); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtensionWarmup(b *testing.B) {
	cfg := benchConfig()
	cfg.DSEMaxCalls = 15
	for i := 0; i < b.N; i++ {
		pts, err := experiments.WarmupAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.RenderWarmup(pts))
		}
	}
}

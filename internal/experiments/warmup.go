package experiments

import (
	"fmt"
	"strings"

	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/parallel"
	"stemroot/internal/pipeline"
	"stemroot/internal/sampling"
	"stemroot/internal/workloads"
)

// WarmupPoint is one setting of the §6.2 lightweight-warmup strategy.
type WarmupPoint struct {
	Warmup         int
	ErrorPct       float64
	WarmupSharePct float64 // warmup cycles / measured cycles, the cost
}

// WarmupAblation evaluates inserting 0, 1, 2, or 4 warmup kernels before
// each sampled kernel on the reduced Rodinia workloads. The paper expects
// little accuracy change (cache reuse is intra-kernel) at a real simulation
// cost — quantifying why full warmup machinery is unnecessary.
//
// Workloads fan out over cfg.Sim.Workers workers per warmup setting on the
// shared-cursor scheduler (SampledSimWarm itself is inherently serial);
// per-workload partials are folded in workload order, so the result is
// identical for every worker count.
func WarmupAblation(cfg Config) ([]WarmupPoint, error) {
	lim := kernelgen.DSELimits()
	ws := workloads.DSERodinia(cfg.Seed, cfg.DSEMaxCalls)
	gcfg := gpu.Baseline()

	// wsPartial is one workload's contribution to a warmup point.
	type wsPartial struct {
		errPct                 float64
		counted                bool
		warmCycles, measCycles float64
	}

	var out []WarmupPoint
	for _, warm := range []int{0, 1, 2, 4} {
		partials, err := parallel.MapStealing(len(ws), parallel.Workers(cfg.Sim.Workers),
			func(wi int) (wsPartial, error) {
				w := ws[wi]
				var part wsPartial
				full, err := pipeline.FullSimOpt(w, gcfg, lim, cfg.serialSimOpts())
				if err != nil {
					return part, err
				}
				prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
				stem := &sampling.STEMRoot{Params: cfg.stemParams(cfg.Seed)}
				plan, err := stem.Plan(w, prof)
				if err != nil {
					return part, err
				}
				indices := plan.SampledIndices()
				times, wc, err := pipeline.SampledSimWarm(w, gcfg, lim, indices, warm)
				if err != nil {
					return part, err
				}
				est := plan.Estimate(func(i int) float64 { return times[i] })
				var truth float64
				for _, c := range full {
					truth += c
				}
				part.errPct, _ = sampling.Score(est, truth, 0)
				part.counted = truth > 0
				part.warmCycles = wc
				// Sum in plan order, not map-iteration order, so the share
				// is bit-stable across runs and worker counts.
				for _, ix := range indices {
					part.measCycles += times[ix]
				}
				return part, nil
			})
		if err != nil {
			return nil, err
		}
		var errSum, warmCycles, measCycles float64
		n := 0
		for _, part := range partials {
			if part.counted {
				errSum += part.errPct
				n++
			}
			warmCycles += part.warmCycles
			measCycles += part.measCycles
		}
		p := WarmupPoint{Warmup: warm, ErrorPct: errSum / float64(n)}
		if measCycles > 0 {
			p.WarmupSharePct = warmCycles / measCycles * 100
		}
		out = append(out, p)
	}
	return out, nil
}

// RenderWarmup prints the ablation.
func RenderWarmup(pts []WarmupPoint) string {
	var b strings.Builder
	b.WriteString("S6.2 warmup strategy: warmup kernels before each sample (Rodinia, reduced)\n\n")
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Warmup),
			fmt.Sprintf("%.2f", p.ErrorPct),
			fmt.Sprintf("%.1f%%", p.WarmupSharePct),
		})
	}
	writeTable(&b, []string{"warmup kernels", "error(%)", "warmup cost"}, rows)
	return b.String()
}

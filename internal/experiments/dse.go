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
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// Table4Result holds the design-space exploration: per microarchitecture
// variant, the average sampled-simulation error of each method, plus the
// per-workload cycle counts behind Figure 12.
type Table4Result struct {
	Variants []string
	Methods  []string
	// ErrorPct[variant][method]
	ErrorPct map[string]map[string]float64
	// Figure12: per (variant, workload, method) estimated vs full cycles.
	Figure12 []Figure12Bar
}

// Figure12Bar is one bar pair of Figure 12.
type Figure12Bar struct {
	Variant                    string
	Workload                   string
	Method                     string
	FullCycles, EstimateCycles float64
}

// dseMethods are the four methods compared in Table 4.
func (c Config) dseMethods(rep int) []sampling.Method {
	seed := c.Seed + uint64(rep)*104729
	pka := sampling.NewPKA(seed)
	pka.TunedWorkloads = pkaTuned
	sieve := sampling.NewSieve(seed)
	sieve.TunedWorkloads = sieveTuned
	photon := &sampling.Photon{}
	stem := &sampling.STEMRoot{Params: c.stemParams(seed)}
	return []sampling.Method{pka, sieve, photon, stem}
}

// dseWorkloads returns the reduced 11 Rodinia + 6 HuggingFace workloads of
// the paper's §5.4 methodology.
func dseWorkloads(cfg Config) []*trace.Workload {
	out := workloads.DSERodinia(cfg.Seed, cfg.DSEMaxCalls)
	return append(out, workloads.DSEHuggingFace(cfg.Seed, cfg.DSEMaxCalls)...)
}

// Table4 runs full and sampled cycle-level simulations across the five
// microarchitecture variants. Sampling plans are built once per method from
// the RTX 2080 execution-time profile (hardware-side information only) and
// reused unchanged across every variant — the paper's test of whether
// sampling information survives microarchitectural change.
//
// Within each variant the workloads fan out over cfg.Sim.Workers workers on
// the shared-cursor scheduler (each workload's full and sampled simulations
// are independent, and their costs are skewed enough that static assignment
// would serialize the tail behind the biggest workload); partial sums and
// Figure 12 bars are folded in workload order, so the result is identical
// for every worker count.
func Table4(cfg Config) (*Table4Result, error) {
	lim := kernelgen.DSELimits()
	ws := dseWorkloads(cfg)

	res := &Table4Result{
		Variants: gpu.DSEVariants,
		ErrorPct: make(map[string]map[string]float64),
	}
	type key struct{ variant, method string }
	sums := make(map[key]float64)
	counts := make(map[key]int)

	// wsResult is one workload's contribution to a variant's rows.
	type wsResult struct {
		errSums map[string]float64
		counts  map[string]int
		bars    []Figure12Bar
	}

	for _, variant := range gpu.DSEVariants {
		cfgGPU, err := gpu.Variant(variant)
		if err != nil {
			return nil, err
		}
		partials, err := parallel.MapStealing(len(ws), parallel.Workers(cfg.Sim.Workers),
			func(wi int) (wsResult, error) {
				w := ws[wi]
				part := wsResult{errSums: make(map[string]float64), counts: make(map[string]int)}
				full, err := pipeline.FullSimOpt(w, cfgGPU, lim, cfg.serialSimOpts())
				if err != nil {
					return part, err
				}
				for rep := 0; rep < cfg.Reps; rep++ {
					for _, m := range cfg.dseMethods(rep) {
						r, err := pipeline.RunOpt(w, hwmodel.RTX2080, m, cfgGPU, lim, full,
							cfg.serialSimOpts())
						if err != nil {
							return part, fmt.Errorf("table4 %s/%s/%s: %w", variant, w.Name, m.Name(), err)
						}
						part.errSums[m.Name()] += r.Outcome.ErrorPct
						part.counts[m.Name()]++
						// Figure 12 keeps the first rep of a subset of
						// workloads (three Rodinia + three HF).
						if rep == 0 && (wi%3 == 0) {
							part.bars = append(part.bars, Figure12Bar{
								Variant:        variant,
								Workload:       w.Name,
								Method:         m.Name(),
								FullCycles:     r.FullCycles,
								EstimateCycles: r.EstimateCycles,
							})
						}
					}
				}
				return part, nil
			})
		if err != nil {
			return nil, err
		}
		for _, part := range partials {
			for name, s := range part.errSums {
				sums[key{variant, name}] += s
				counts[key{variant, name}] += part.counts[name]
			}
			res.Figure12 = append(res.Figure12, part.bars...)
		}
	}

	for _, m := range cfg.dseMethods(0) {
		res.Methods = append(res.Methods, m.Name())
	}
	for _, v := range gpu.DSEVariants {
		res.ErrorPct[v] = make(map[string]float64)
		for _, m := range res.Methods {
			k := key{v, m}
			if counts[k] > 0 {
				res.ErrorPct[v][m] = sums[k] / float64(counts[k])
			}
		}
	}
	return res, nil
}

// Render prints Table 4 in the paper's layout.
func (t *Table4Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 4: average sampled-simulation error (%) across microarchitectures\n\n")
	header := append([]string{"variant"}, t.Methods...)
	var rows [][]string
	for _, v := range t.Variants {
		row := []string{v}
		for _, m := range t.Methods {
			row = append(row, fmt.Sprintf("%.2f", t.ErrorPct[v][m]))
		}
		rows = append(rows, row)
	}
	writeTable(&b, header, rows)
	return b.String()
}

// RenderFigure12 prints estimated-vs-full cycle pairs.
func RenderFigure12(bars []Figure12Bar) string {
	var b strings.Builder
	var rows [][]string
	for _, bar := range bars {
		rows = append(rows, []string{
			bar.Variant, bar.Workload, bar.Method,
			fmt.Sprintf("%.3e", bar.FullCycles),
			fmt.Sprintf("%.3e", bar.EstimateCycles),
		})
	}
	writeTable(&b, []string{"variant", "workload", "method", "full cycles", "estimated"}, rows)
	return b.String()
}

// FlushResult holds the §6.2 extreme-case ablation: error with and without
// flushing L2 between kernels.
type FlushResult struct {
	Methods []string
	// ErrorPct[method][0] = persistent L2, [1] = flushed.
	ErrorPct map[string][2]float64
}

// FlushAblation runs the reduced Rodinia workloads with L2 persisting vs
// flushed between kernels. The paper reports minimal degradation (STEM:
// +0.70% on Rodinia) because most cache reuse is intra-kernel.
func FlushAblation(cfg Config) (*FlushResult, error) {
	lim := kernelgen.DSELimits()
	ws := workloads.DSERodinia(cfg.Seed, cfg.DSEMaxCalls)

	res := &FlushResult{ErrorPct: make(map[string][2]float64)}
	for _, m := range cfg.dseMethods(0) {
		res.Methods = append(res.Methods, m.Name())
	}

	for fi, flush := range []bool{false, true} {
		cfgGPU := gpu.Baseline()
		cfgGPU.FlushL2BetweenKernels = flush
		sums := make(map[string]float64)
		n := make(map[string]int)
		for _, w := range ws {
			full, err := pipeline.FullSimOpt(w, cfgGPU, lim, cfg.Sim)
			if err != nil {
				return nil, err
			}
			for _, m := range cfg.dseMethods(0) {
				r, err := pipeline.RunOpt(w, hwmodel.RTX2080, m, cfgGPU, lim, full, cfg.Sim)
				if err != nil {
					return nil, err
				}
				sums[m.Name()] += r.Outcome.ErrorPct
				n[m.Name()]++
			}
		}
		for _, name := range res.Methods {
			pair := res.ErrorPct[name]
			pair[fi] = sums[name] / float64(n[name])
			res.ErrorPct[name] = pair
		}
	}
	return res, nil
}

// Render prints the flush ablation.
func (f *FlushResult) Render() string {
	var b strings.Builder
	b.WriteString("S6.2 ablation: L2 flushed between kernels (Rodinia, reduced)\n\n")
	var rows [][]string
	for _, m := range f.Methods {
		p := f.ErrorPct[m]
		rows = append(rows, []string{
			m,
			fmt.Sprintf("%.2f", p[0]),
			fmt.Sprintf("%.2f", p[1]),
			fmt.Sprintf("%+.2f", p[1]-p[0]),
		})
	}
	writeTable(&b, []string{"method", "persistent L2 err(%)", "flushed err(%)", "delta"}, rows)
	return b.String()
}

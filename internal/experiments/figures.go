package experiments

import (
	"fmt"
	"slices"
	"strings"

	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/parallel"
	"stemroot/internal/pipeline"
	"stemroot/internal/sampling"
	"stemroot/internal/stats"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

func cov(xs []float64) float64    { return stats.CoV(xs) }
func countModes(xs []float64) int { return stats.CountModes(xs, 256, 0.05) }

// RenderFigure1 draws the execution-time histograms as text.
func RenderFigure1(entries []Figure1Entry) string {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s / %s  (n=%d, modes=%d, CoV=%.3f)\n",
			e.Workload, e.Kernel, len(e.Times), e.Modes, e.CoV)
		h := stats.NewHistogram(e.Times, 24)
		b.WriteString(h.Render(40))
		b.WriteString("\n")
	}
	return b.String()
}

// Figure10Cluster describes the execution-time spread of one group of
// kernels a baseline considers "identical".
type Figure10Cluster struct {
	Method string
	Size   int
	MinUS  float64
	MaxUS  float64
	Spread float64 // max/min
	CoV    float64
}

// Figure10 reproduces the signature-blindness analysis on the DLRM
// workload: for PKA and Photon, the execution-time distributions of the
// largest clusters each method treats as one kernel. Large spreads mean the
// signature cannot see runtime heterogeneity.
func Figure10(cfg Config) ([]Figure10Cluster, error) {
	var dlrm *trace.Workload
	for _, w := range workloads.CASIO(cfg.Seed, cfg.CASIOScale) {
		if w.Name == "dlrm" {
			dlrm = w
			break
		}
	}
	if dlrm == nil {
		return nil, fmt.Errorf("experiments: dlrm workload missing")
	}
	prof := hwmodel.New(hwmodel.RTX2080, dlrm.Seed).Profile(dlrm)

	pka := sampling.NewPKA(cfg.Seed)
	photon := &sampling.Photon{}

	var out []Figure10Cluster
	for _, m := range []sampling.Method{pka, photon} {
		plan, err := m.Plan(dlrm, prof)
		if err != nil {
			return nil, err
		}
		clusters := clusterTimes(plan, dlrm, prof)
		// Keep the three widest-spread clusters with >= 10 members.
		kept := 0
		for _, c := range clusters {
			if c.Size < 10 {
				continue
			}
			c.Method = m.Name()
			out = append(out, c)
			if kept++; kept == 3 {
				break
			}
		}
	}
	return out, nil
}

// clusterTimes reconstructs, for single-representative methods, which
// invocations each representative stands for, and summarizes their times,
// sorted by descending spread.
func clusterTimes(plan *sampling.Plan, w *trace.Workload, prof *trace.Profile) []Figure10Cluster {
	// Re-derive membership: for PKA/Photon every cluster has one sample
	// that represents Weight invocations of the same kernel name; gather
	// times of all invocations sharing the representative's name,
	// partitioned round-robin is not possible — instead measure the
	// name-group spread scaled by the cluster's share. For the paper's
	// purpose (showing the spread a single proxy hides) the name-level
	// spread each cluster draws from is the relevant population.
	byName := w.GroupByName()
	var out []Figure10Cluster
	for ci := range plan.Clusters {
		c := &plan.Clusters[ci]
		rep := c.Samples[0]
		idxs := byName[w.Invs[rep].Name]
		var times []float64
		for _, ix := range idxs {
			times = append(times, prof.TimeUS[ix])
		}
		mn, mx := slices.Min(times), slices.Max(times)
		fc := Figure10Cluster{
			Size:  int(c.Weight + 0.5),
			MinUS: mn,
			MaxUS: mx,
			CoV:   stats.CoV(times),
		}
		if mn > 0 {
			fc.Spread = mx / mn
		}
		out = append(out, fc)
	}
	// Sort by descending spread (insertion sort: small n).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Spread > out[j-1].Spread; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RenderFigure10 prints the cluster spreads.
func RenderFigure10(cs []Figure10Cluster) string {
	var b strings.Builder
	var rows [][]string
	for _, c := range cs {
		rows = append(rows, []string{
			c.Method,
			fmt.Sprintf("%d", c.Size),
			fmt.Sprintf("%.1f", c.MinUS),
			fmt.Sprintf("%.1f", c.MaxUS),
			fmt.Sprintf("%.1fx", c.Spread),
			fmt.Sprintf("%.3f", c.CoV),
		})
	}
	writeTable(&b, []string{"method", "cluster size", "min(us)", "max(us)", "spread", "CoV"}, rows)
	return b.String()
}

// Figure11Point is one error-bound sweep measurement.
type Figure11Point struct {
	Epsilon  float64
	Speedup  float64
	ErrorPct float64
}

// Figure11Epsilons are the paper's sweep points (3%, 5%, 10%, 25%).
var Figure11Epsilons = []float64{0.03, 0.05, 0.10, 0.25}

// fig11MaxCalls caps the per-workload invocation count of the sweep's
// reduced CASIO workloads. The sweep needs more invocations per workload
// than Table 4's DSE so the per-ε sample-size differences stay visible in
// the speedup axis.
func fig11MaxCalls(cfg Config) int { return 3 * cfg.DSEMaxCalls }

// Figure11 sweeps STEM's error bound ε over the (simulation-reduced) CASIO
// suite. The sweep is simulator-grounded: ground truth is a full cycle-level
// simulation of every workload, and each plan is scored by actually
// simulating its sampled invocations (pipeline.RunOpt) — the cost whose
// avoidance the figure's speedup axis reports.
//
// The ground-truth FullSim depends only on (engine, GPU config, workload) —
// it is invariant across sweep points and repetitions — so it is computed
// once per workload here, outside the ε loop, and shared by every (ε, rep)
// evaluation. A segment cache (Config.Cache) additionally carries those
// segments across processes; correctness never depends on it.
//
// Workloads fan out over cfg.Sim.Workers workers on the shared-cursor
// scheduler (CASIO workload costs are skewed); per-workload outcomes are
// folded in (ε, workload, rep) order, so the result is identical for every
// worker count.
func Figure11(cfg Config) ([]Figure11Point, error) {
	lim := kernelgen.DSELimits()
	gcfg := gpu.Baseline()
	ws, err := workloads.ReducedSuite(workloads.SuiteCASIO, cfg.Seed, cfg.CASIOScale, fig11MaxCalls(cfg))
	if err != nil {
		return nil, err
	}

	// Hoisted loop-invariant ground truth: one FullSim per workload, reused
	// at every sweep point and repetition.
	truths, err := parallel.MapStealing(len(ws), parallel.Workers(cfg.Sim.Workers),
		func(i int) ([]float64, error) {
			return pipeline.FullSimOpt(ws[i], gcfg, lim, cfg.serialSimOpts())
		})
	if err != nil {
		return nil, err
	}

	var out []Figure11Point
	for _, eps := range Figure11Epsilons {
		perWorkload, err := parallel.MapStealing(len(ws), parallel.Workers(cfg.Sim.Workers),
			func(i int) ([]sampling.Outcome, error) {
				w := ws[i]
				var outs []sampling.Outcome
				for rep := 0; rep < cfg.Reps; rep++ {
					p := cfg.stemParams(cfg.Seed + uint64(rep)*7919)
					p.Epsilon = eps
					stem := &sampling.STEMRoot{Params: p}
					r, err := pipeline.RunOpt(w, hwmodel.RTX2080, stem, gcfg, lim,
						truths[i], cfg.serialSimOpts())
					if err != nil {
						return nil, err
					}
					outs = append(outs, r.Outcome)
				}
				return outs, nil
			})
		if err != nil {
			return nil, err
		}
		var outs []sampling.Outcome
		for _, group := range perWorkload {
			outs = append(outs, group...)
		}
		out = append(out, Figure11Point{
			Epsilon:  eps,
			Speedup:  sampling.HarmonicMeanSpeedup(outs),
			ErrorPct: sampling.MeanErrorPct(outs),
		})
	}
	return out, nil
}

// RenderFigure11 prints the sweep.
func RenderFigure11(pts []Figure11Point) string {
	var b strings.Builder
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", p.Epsilon*100),
			fmt.Sprintf("%.2f", p.Speedup),
			fmt.Sprintf("%.3f", p.ErrorPct),
		})
	}
	writeTable(&b, []string{"epsilon", "speedup(x)", "error(%)"}, rows)
	return b.String()
}

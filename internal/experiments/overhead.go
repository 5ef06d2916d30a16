package experiments

import (
	"fmt"
	"strings"

	"stemroot/internal/hwmodel"
	"stemroot/internal/profiler"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// Table5Result holds profiling overhead factors per suite and tool.
type Table5Result struct {
	Suites []string
	Tools  []string
	// Factor[suite][tool]; negative means infeasible (N/A), with
	// EstimatedDays giving the projected cost.
	Factor        map[string]map[string]float64
	EstimatedDays map[string]map[string]float64
}

// table5Tools lists the profilers in the paper's row order (PKA's NCU,
// Sieve's NVBit, Photon's BBV collection, STEM's NSYS).
var table5Tools = []string{"ncu", "nvbit", "bbv", "nsys"}

// feasibleDays marks a profiling run infeasible past this projected cost
// (the paper quotes up to 78.68 days for HuggingFace workloads).
const feasibleDays = 30.0

// Table5 measures the profiling overhead of each toolchain on each suite.
// On the HuggingFace suite the heavyweight profilers are reported as
// infeasible with their projected day counts, as in the paper.
func Table5(cfg Config) (*Table5Result, error) {
	res := &Table5Result{
		Factor:        make(map[string]map[string]float64),
		EstimatedDays: make(map[string]map[string]float64),
	}
	suiteGens := []struct {
		name  string
		scale float64
	}{
		{workloads.SuiteRodinia, 1},
		{workloads.SuiteCASIO, cfg.CASIOScale},
		{workloads.SuiteHuggingFace, cfg.HFScale},
	}
	for _, sg := range suiteGens {
		ws, err := workloads.Suite(sg.name, cfg.Seed, sg.scale)
		if err != nil {
			return nil, err
		}
		res.Suites = append(res.Suites, sg.name)
		res.Factor[sg.name] = make(map[string]float64)
		res.EstimatedDays[sg.name] = make(map[string]float64)

		sums := make(map[string]float64)
		days := make(map[string]float64)
		for _, w := range ws {
			model := hwmodel.New(hwmodel.RTX2080, w.Seed)
			p := profiler.New(model)

			_, nsys := p.NSYS(w)
			ncu := p.NCU(w)
			nvbit := p.NVBitInstr(w)
			bbv := p.NVBitBBV(w, photonReps(w, cfg), trace.DefaultBBVDim)

			for _, o := range []profiler.Overhead{ncu, nvbit, bbv, nsys} {
				sums[o.Tool] += o.Factor()
				if o.Days() > days[o.Tool] {
					days[o.Tool] = o.Days()
				}
			}
		}
		for _, tool := range table5Tools {
			factor := sums[tool] / float64(len(ws))
			res.EstimatedDays[sg.name][tool] = days[tool]
			if sg.name == workloads.SuiteHuggingFace && tool != "nsys" && days[tool] > feasibleDays {
				factor = -1 // N/A
			}
			res.Factor[sg.name][tool] = factor
		}
	}
	res.Tools = table5Tools
	return res, nil
}

// photonReps estimates Photon's representative count for the BBV
// post-processing cost model by actually running its selection (only on
// workloads small enough to do so; larger ones extrapolate from the kernel
// name/context diversity).
func photonReps(w *trace.Workload, cfg Config) int {
	if w.Len() <= 50000 {
		photon := &sampling.Photon{}
		if plan, err := photon.Plan(w, nil); err == nil {
			return len(plan.Clusters)
		}
	}
	// Representatives scale with distinct (name, context) pairs plus a
	// slowly growing noise term.
	type nc struct {
		name string
		ctx  int
	}
	distinct := make(map[nc]bool)
	for i := range w.Invs {
		distinct[nc{w.Invs[i].Name, w.Invs[i].Latent.Context}] = true
	}
	return len(distinct) + w.Len()/5000
}

// Render prints Table 5.
func (t *Table5Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 5: profiling overhead relative to uninstrumented wall time\n\n")
	header := append([]string{"tool"}, t.Suites...)
	var rows [][]string
	for _, tool := range t.Tools {
		row := []string{tool}
		for _, s := range t.Suites {
			f := t.Factor[s][tool]
			if f < 0 {
				row = append(row, fmt.Sprintf("N/A (%.1f days)", t.EstimatedDays[s][tool]))
			} else {
				row = append(row, fmt.Sprintf("%.2fx", f))
			}
		}
		rows = append(rows, row)
	}
	writeTable(&b, header, rows)
	return b.String()
}

package experiments

import (
	"fmt"
	"testing"

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

// coverageCell is one cell of the coverage grid: how many of its plans
// landed within ε of the truth, and the distinct samples they drew.
type coverageCell struct {
	covered, plans, samples int
}

func (c *coverageCell) add(o coverageCell) {
	c.covered += o.covered
	c.plans += o.plans
	c.samples += o.samples
}

// String is the cell's coverage, its Wilson interval and samples per plan.
func (c coverageCell) String() string {
	lo, hi := stats.Wilson(c.covered, c.plans, coverageZ)
	return fmt.Sprintf("%d/%d = %.3f [%.3f, %.3f], %.2f samples per plan",
		c.covered, c.plans, float64(c.covered)/float64(c.plans), lo, hi, float64(c.samples)/float64(c.plans))
}

// coverageZ is the normal quantile of the Wilson intervals: 95 %.
var coverageZ = stats.MustZScore(0.95)

// scorePlans plans w with STEM+ROOT at each of `seeds` seeds, cfg.Seed +
// s·2654435761, on its RTX 2080 profile, and scores each plan against
// truth, one time per invocation (nil: the profile's own times).
func scorePlans(cfg Config, w *trace.Workload, truth []float64, seeds int) (coverageCell, error) {
	prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
	if truth == nil {
		truth = prof.TimeUS
	}
	var cell coverageCell
	for s := range seeds {
		p := cfg.stemParams(cfg.Seed + uint64(s)*2654435761)
		plan, err := (&sampling.STEMRoot{Params: p}).Plan(w, prof)
		if err != nil {
			return cell, err
		}
		out, err := sampling.EvaluateTimes(plan, w.Name, truth)
		if err != nil {
			return cell, err
		}
		cell.plans++
		cell.samples += out.Samples
		if out.ErrorPct <= p.Epsilon*100 {
			cell.covered++
		}
	}
	return cell, nil
}

// TestCoverage scores STEM's ε-bound empirically: the share of independent
// plans whose extrapolation lands within ε of the truth, with its Wilson
// interval. On profile time — table3's three suites at Quick, 50 seeds a
// workload — every workload's upper limit must reach the nominal 95 %. On
// cycles — the DSE suite at caps 40 and 120, ground truth from the full
// simulation of the baseline variant, 300 seeds a workload — the pooled
// cells are reported next to the values before ROOT's splits became exact
// cuts; sampling error alone is scored there, as the cycles are looked up,
// not re-simulated.
func TestCoverage(t *testing.T) {
	cfg := Quick()
	const confidence = 0.95
	for _, suite := range []string{workloads.SuiteRodinia, workloads.SuiteCASIO, workloads.SuiteHuggingFace} {
		scale := cfg.CASIOScale
		if suite == workloads.SuiteHuggingFace {
			scale = cfg.HFScale
		}
		ws, err := workloads.Suite(suite, cfg.Seed, scale)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := parallel.MapStealing(len(ws), parallel.Workers(0), func(i int) (coverageCell, error) {
			return scorePlans(cfg, ws[i], nil, 50)
		})
		if err != nil {
			t.Fatal(err)
		}
		var pooled coverageCell
		lowest := 1.0
		for i, c := range cells {
			pooled.add(c)
			_, hi := stats.Wilson(c.covered, c.plans, coverageZ)
			if hi < confidence {
				t.Errorf("%s/%s profile time: %v, upper limit below %.2f", suite, ws[i].Name, c, confidence)
			}
			lowest = min(lowest, hi)
		}
		t.Logf("%s profile time: %v; lowest workload upper limit %.3f", suite, pooled, lowest)
	}

	lim, base := kernelgen.DSELimits(), gpu.Baseline()
	for _, c := range []struct {
		cap    int
		before string // the cell before exact cuts
	}{{40, "3560/5100 = 0.698 [0.685, 0.710], 6.09"}, {120, "3917/5100 = 0.768 [0.756, 0.779], 10.16"}} {
		cfg.DSEMaxCalls = c.cap
		ws := dseWorkloads(cfg)
		cells, err := parallel.MapStealing(len(ws), parallel.Workers(0), func(i int) (coverageCell, error) {
			cycles, err := pipeline.FullSimOpt(ws[i], base, lim, cfg.serialSimOpts())
			if err != nil {
				return coverageCell{}, err
			}
			return scorePlans(cfg, ws[i], cycles, 300)
		})
		if err != nil {
			t.Fatal(err)
		}
		var pooled coverageCell
		for _, cell := range cells {
			pooled.add(cell)
		}
		t.Logf("DSE cap %d cycles: %v (before exact cuts: %s)", c.cap, pooled, c.before)
	}
}

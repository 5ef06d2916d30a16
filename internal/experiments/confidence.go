package experiments

import (
	"fmt"
	"strings"

	"stemroot/internal/core"
	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/parallel"
	"stemroot/internal/pipeline"
	"stemroot/internal/sampling"
	"stemroot/internal/stats"
	"stemroot/internal/trace"
)

// CoverageSuite is one suite's row of the coverage grid: a cell per
// workload, in workload order, and the cells pooled.
type CoverageSuite struct {
	Suite, Truth string // Truth is what the plans are scored on
	Seeds        int    // plans per workload
	Workloads    []string
	Cells        []sampling.Coverage
	Pooled       sampling.Coverage
}

// ConfidenceResult is the empirical check of STEM's headline claim: with
// error bound ε at confidence 1-α, at least 1-α of independent plans land
// within ε of the truth.
type ConfidenceResult struct {
	Epsilon, Confidence float64
	Suites              []CoverageSuite
}

const profileTime = "profile time"

// wilsonZ is the normal quantile of the reported Wilson intervals: 95 %.
var wilsonZ = stats.MustZScore(0.95)

// Confidence scores STEM's ε-bound by repeated subsampling: each workload is
// planned at the seeds cfg.Seed + s·2654435761, and the plans whose
// extrapolation lands within ε of the truth are counted. Table 3's three
// suites are scored on their RTX 2080 profile time, 50 seeds a workload.
// The DSE suite at cfg.DSEMaxCalls is scored on cycles from the full
// simulation of the baseline variant, 300 seeds a workload; the cycles are
// looked up, not re-simulated, so only sampling error is scored.
//
// Workloads fan out over cfg.Sim.Workers workers; each scores its seeds in
// order and the cells fold in workload order, so the result is identical
// for every worker count.
func Confidence(cfg Config) (*ConfidenceResult, error) {
	p := core.DefaultParams()
	res := &ConfidenceResult{Epsilon: p.Epsilon, Confidence: p.Confidence}
	for _, suite := range table3Suites {
		ws, err := suiteWorkloads(cfg, suite)
		if err != nil {
			return nil, err
		}
		s, err := coverageSuite(cfg, suite, profileTime, ws, 50, nil)
		if err != nil {
			return nil, err
		}
		res.Suites = append(res.Suites, s)
	}
	s, err := dseCoverage(cfg)
	if err != nil {
		return nil, err
	}
	res.Suites = append(res.Suites, s)
	return res, nil
}

// dseCoverage is the grid's cycles row: the DSE suite at cfg.DSEMaxCalls.
func dseCoverage(cfg Config) (CoverageSuite, error) {
	lim, base := kernelgen.DSELimits(), gpu.Baseline()
	return coverageSuite(cfg, "dse", "cycles", dseWorkloads(cfg), 300, func(w *trace.Workload) ([]float64, error) {
		return pipeline.FullSimOpt(w, base, lim, cfg.serialSimOpts())
	})
}

// coverageSuite plans every workload in ws with STEM+ROOT at seeds seeds on
// its RTX 2080 profile and scores each plan against the per-invocation
// times truthOf returns (nil: the profile's own).
func coverageSuite(cfg Config, suite, truth string, ws []*trace.Workload, seeds int,
	truthOf func(*trace.Workload) ([]float64, error)) (CoverageSuite, error) {

	cells, err := parallel.MapStealing(len(ws), parallel.Workers(cfg.Sim.Workers), func(i int) (cell sampling.Coverage, err error) {
		w := ws[i]
		prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
		times := prof.TimeUS
		if truthOf != nil {
			if times, err = truthOf(w); err != nil {
				return cell, err
			}
		}
		var plan sampling.Plan
		for s := range seeds {
			stem := sampling.STEMRoot{Params: cfg.stemParams(cfg.Seed + uint64(s)*2654435761)}
			if err := stem.PlanInto(&plan, w, prof); err != nil {
				return cell, err
			}
			out, err := sampling.EvaluateTimes(&plan, times)
			if err != nil {
				return cell, err
			}
			cell.Add(out, stem.Params.Epsilon)
		}
		return cell, nil
	})
	s := CoverageSuite{Suite: suite, Truth: truth, Seeds: seeds, Cells: cells}
	for i, c := range cells {
		s.Workloads = append(s.Workloads, ws[i].Name)
		s.Pooled.Merge(c)
	}
	return s, err
}

// Lowest returns the workload whose Wilson upper limit is lowest (the
// first of a tie) and that limit.
func (s *CoverageSuite) Lowest() (workload string, hi float64) {
	hi = 2
	for i, c := range s.Cells {
		if _, h := c.Wilson(wilsonZ); h < hi {
			workload, hi = s.Workloads[i], h
		}
	}
	return workload, hi
}

// Render prints the grid, one row per suite.
func (c *ConfidenceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Empirical coverage of STEM's bound: plans within eps = %.0f%% of the truth, nominal %.0f%%\n\n",
		c.Epsilon*100, c.Confidence*100)
	var rows [][]string
	for _, s := range c.Suites {
		lo, hi := s.Pooled.Wilson(wilsonZ)
		name, lowest := s.Lowest()
		rows = append(rows, []string{
			s.Suite, s.Truth, fmt.Sprint(s.Seeds),
			fmt.Sprintf("%d/%d", s.Pooled.Covered, s.Pooled.Plans),
			fmt.Sprintf("%.3f", s.Pooled.Rate()),
			fmt.Sprintf("[%.3f, %.3f]", lo, hi),
			fmt.Sprintf("%.2f", s.Pooled.SamplesPerPlan()),
			fmt.Sprintf("%.3f", s.Pooled.MeanErrorPct()),
			fmt.Sprintf("%.3f (%s)", lowest, name),
		})
	}
	writeTable(&b, []string{"suite", "truth", "seeds", "covered", "coverage", "wilson 95%",
		"samples/plan", "mean err(%)", "lowest workload upper limit"}, rows)
	return b.String()
}

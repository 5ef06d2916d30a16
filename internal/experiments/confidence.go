package experiments

import (
	"fmt"
	"strings"

	"stemroot/internal/core"
	"stemroot/internal/hwmodel"
	"stemroot/internal/parallel"
	"stemroot/internal/sampling"
	"stemroot/internal/workloads"
)

// ConfidenceResult empirically validates STEM's headline trustworthiness
// claim: with error bound ε at confidence 1-α, at least ~(1-α) of
// independent sampling runs must land within ε of the ground truth.
type ConfidenceResult struct {
	Epsilon    float64
	Confidence float64
	Runs       int
	WithinPct  float64 // fraction of runs with error <= ε, in percent
	MaxErrPct  float64
	MeanErrPct float64
}

// Confidence repeats STEM sampling with independent seeds on a CASIO
// workload and counts how often the realized error respects the bound.
// Because STEM's bound is derived for the worst acceptable sample sizes
// (and the ceiling plus full-simulation capping only tighten it), the
// empirical coverage should be at least the nominal confidence.
//
// Runs are independent (each derives its own seed), so they fan out over
// cfg.Sim.Workers workers; per-run errors are folded in run order, making
// the result identical for every worker count.
func Confidence(cfg Config, runs int) (*ConfidenceResult, error) {
	if runs <= 0 {
		runs = 100
	}
	var w = workloads.CASIO(cfg.Seed, cfg.CASIOScale)[0] // bert_infer
	prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)

	p := core.DefaultParams()
	res := &ConfidenceResult{
		Epsilon:    p.Epsilon,
		Confidence: p.Confidence,
		Runs:       runs,
	}
	errPcts, err := parallel.MapStealing(runs, parallel.Workers(cfg.Sim.Workers),
		func(r int) (float64, error) {
			stem := &sampling.STEMRoot{Params: cfg.stemParams(cfg.Seed + uint64(r)*2654435761)}
			plan, err := stem.Plan(w, prof)
			if err != nil {
				return 0, err
			}
			out, err := sampling.Evaluate(plan, w, prof)
			if err != nil {
				return 0, err
			}
			return out.ErrorPct, nil
		})
	if err != nil {
		return nil, err
	}
	within := 0
	for _, errPct := range errPcts {
		if errPct <= res.Epsilon*100 {
			within++
		}
		if errPct > res.MaxErrPct {
			res.MaxErrPct = errPct
		}
		res.MeanErrPct += errPct
	}
	res.WithinPct = float64(within) / float64(runs) * 100
	res.MeanErrPct /= float64(runs)
	return res, nil
}

// Render prints the validation.
func (c *ConfidenceResult) Render() string {
	var b strings.Builder
	b.WriteString("Empirical confidence validation (bert_infer)\n\n")
	writeTable(&b,
		[]string{"eps", "confidence", "runs", "within bound", "mean err(%)", "max err(%)"},
		[][]string{{
			fmt.Sprintf("%.0f%%", c.Epsilon*100),
			fmt.Sprintf("%.0f%%", c.Confidence*100),
			fmt.Sprintf("%d", c.Runs),
			fmt.Sprintf("%.1f%%", c.WithinPct),
			fmt.Sprintf("%.3f", c.MeanErrPct),
			fmt.Sprintf("%.3f", c.MaxErrPct),
		}})
	return b.String()
}

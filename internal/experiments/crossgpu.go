package experiments

import (
	"fmt"
	"strings"

	"stemroot/internal/hwmodel"
	"stemroot/internal/sampling"
	"stemroot/internal/workloads"
)

// Figure13Point is one cross-GPU portability measurement: a STEM plan built
// from H100 profiles, scored against H200 ground truth.
type Figure13Point struct {
	Workload string
	ErrorPct float64
}

// Figure13Result holds the portability study.
type Figure13Result struct {
	Points  []Figure13Point
	MeanPct float64
	Worst   string
}

// Figure13 profiles the HuggingFace workloads (plus the memory-intensive
// dlrm from CASIO, the paper's worst case) on the H100, builds STEM plans
// from those profiles, and evaluates the sampling error against H200
// execution times.
func Figure13(cfg Config) (*Figure13Result, error) {
	ws := workloads.HuggingFace(cfg.Seed, cfg.HFScale)
	for _, w := range workloads.CASIO(cfg.Seed, cfg.CASIOScale) {
		if w.Name == "dlrm" {
			ws = append(ws, w)
			break
		}
	}

	res := &Figure13Result{}
	var worstErr float64
	for _, w := range ws {
		h100 := hwmodel.New(hwmodel.H100, w.Seed).Profile(w)
		h200 := hwmodel.New(hwmodel.H200, w.Seed).Profile(w)

		var sum float64
		for rep := 0; rep < cfg.Reps; rep++ {
			stem := &sampling.STEMRoot{Params: cfg.stemParams(cfg.Seed + uint64(rep)*31337)}
			plan, err := stem.Plan(w, h100)
			if err != nil {
				return nil, err
			}
			out, err := sampling.Evaluate(plan, w, h200)
			if err != nil {
				return nil, err
			}
			sum += out.ErrorPct
		}
		errPct := sum / float64(cfg.Reps)
		res.Points = append(res.Points, Figure13Point{Workload: w.Name, ErrorPct: errPct})
		res.MeanPct += errPct
		if errPct > worstErr {
			worstErr = errPct
			res.Worst = w.Name
		}
	}
	res.MeanPct /= float64(len(res.Points))
	return res, nil
}

// Render prints Figure 13's per-workload errors.
func (f *Figure13Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 13: H100-profiled STEM plans evaluated on H200\n\n")
	var rows [][]string
	for _, p := range f.Points {
		rows = append(rows, []string{p.Workload, fmt.Sprintf("%.2f", p.ErrorPct)})
	}
	rows = append(rows, []string{"mean", fmt.Sprintf("%.2f", f.MeanPct)})
	writeTable(&b, []string{"workload", "error(%)"}, rows)
	fmt.Fprintf(&b, "\nworst: %s\n", f.Worst)
	return b.String()
}

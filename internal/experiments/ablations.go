package experiments

import (
	"fmt"
	"strings"

	"stemroot/internal/core"
	"stemroot/internal/hwmodel"
	"stemroot/internal/sampling"
	"stemroot/internal/workloads"
)

// KKTAblationResult quantifies §3.3's claim: jointly optimizing sample
// sizes across clusters reduces total simulated time 2-3x versus applying
// the single-cluster bound (Eq. 3) independently.
type KKTAblationResult struct {
	Workloads []string
	// Ratio[workload] = independent simulated time / joint simulated time.
	Ratio map[string]float64
	Mean  float64
}

// KKTAblation measures the reduction on the CASIO suite's ROOT clusters.
func KKTAblation(cfg Config) (*KKTAblationResult, error) {
	res := &KKTAblationResult{Ratio: make(map[string]float64)}
	ws := workloads.CASIO(cfg.Seed, cfg.CASIOScale)
	for _, w := range ws {
		prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
		names := make([]string, w.Len())
		for i := range w.Invs {
			names[i] = w.Invs[i].Name
		}
		p := cfg.stemParams(cfg.Seed)
		leaves := core.BuildClusters(names, prof.TimeUS, p)
		stats := core.ClusterStatsOf(leaves)
		joint := core.SimTime(stats, core.OptimalSizes(stats, p))
		indep := core.SimTime(stats, core.IndependentSizes(stats, p))
		if joint <= 0 {
			continue
		}
		ratio := indep / joint
		res.Workloads = append(res.Workloads, w.Name)
		res.Ratio[w.Name] = ratio
		res.Mean += ratio
	}
	if len(res.Workloads) > 0 {
		res.Mean /= float64(len(res.Workloads))
	}
	return res, nil
}

// Render prints the KKT ablation.
func (k *KKTAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("S3.3 ablation: independent Eq.(3) sizing vs joint KKT (simulated-time ratio)\n\n")
	var rows [][]string
	for _, w := range k.Workloads {
		rows = append(rows, []string{w, fmt.Sprintf("%.2fx", k.Ratio[w])})
	}
	rows = append(rows, []string{"mean", fmt.Sprintf("%.2fx", k.Mean)})
	writeTable(&b, []string{"workload", "indep/joint"}, rows)
	return b.String()
}

// RootKPoint is one setting of ROOT's split factor k.
type RootKPoint struct {
	K        int
	Speedup  float64
	ErrorPct float64
}

// RootKAblation sweeps ROOT's k over {2, 3, 4} on CASIO — §3.4 claims any
// k >= 2 works well.
func RootKAblation(cfg Config) ([]RootKPoint, error) {
	ws := workloads.CASIO(cfg.Seed, cfg.CASIOScale)
	var out []RootKPoint
	for _, k := range []int{2, 3, 4} {
		var outs []sampling.Outcome
		for _, w := range ws {
			prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
			p := cfg.stemParams(cfg.Seed)
			p.SplitK = k
			stem := &sampling.STEMRoot{Params: p}
			plan, err := stem.Plan(w, prof)
			if err != nil {
				return nil, err
			}
			o, err := sampling.Evaluate(plan, w, prof)
			if err != nil {
				return nil, err
			}
			outs = append(outs, o)
		}
		out = append(out, RootKPoint{
			K:        k,
			Speedup:  sampling.HarmonicMeanSpeedup(outs),
			ErrorPct: sampling.MeanErrorPct(outs),
		})
	}
	return out, nil
}

// RenderRootK prints the k sweep.
func RenderRootK(pts []RootKPoint) string {
	var b strings.Builder
	b.WriteString("ROOT split-factor ablation (CASIO)\n\n")
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("k=%d", p.K),
			fmt.Sprintf("%.2f", p.Speedup),
			fmt.Sprintf("%.3f", p.ErrorPct),
		})
	}
	writeTable(&b, []string{"k", "speedup(x)", "error(%)"}, rows)
	return b.String()
}

// RootAblationResult isolates ROOT's contribution: STEM with hierarchical
// clustering vs flat per-name clustering.
type RootAblationResult struct {
	RootSpeedup, FlatSpeedup   float64
	RootErrorPct, FlatErrorPct float64
}

// RootAblation compares STEM+ROOT against flat STEM on CASIO.
func RootAblation(cfg Config) (*RootAblationResult, error) {
	ws := workloads.CASIO(cfg.Seed, cfg.CASIOScale)
	var rootOuts, flatOuts []sampling.Outcome
	for _, w := range ws {
		prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
		for _, flat := range []bool{false, true} {
			p := cfg.stemParams(cfg.Seed)
			p.Flat = flat
			stem := &sampling.STEMRoot{Params: p}
			plan, err := stem.Plan(w, prof)
			if err != nil {
				return nil, err
			}
			o, err := sampling.Evaluate(plan, w, prof)
			if err != nil {
				return nil, err
			}
			if flat {
				flatOuts = append(flatOuts, o)
			} else {
				rootOuts = append(rootOuts, o)
			}
		}
	}
	return &RootAblationResult{
		RootSpeedup:  sampling.HarmonicMeanSpeedup(rootOuts),
		FlatSpeedup:  sampling.HarmonicMeanSpeedup(flatOuts),
		RootErrorPct: sampling.MeanErrorPct(rootOuts),
		FlatErrorPct: sampling.MeanErrorPct(flatOuts),
	}, nil
}

// Render prints the ROOT ablation.
func (r *RootAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("ROOT ablation (CASIO): hierarchical vs flat per-name clustering\n\n")
	writeTable(&b, []string{"variant", "speedup(x)", "error(%)"}, [][]string{
		{"STEM+ROOT", fmt.Sprintf("%.2f", r.RootSpeedup), fmt.Sprintf("%.3f", r.RootErrorPct)},
		{"STEM flat", fmt.Sprintf("%.2f", r.FlatSpeedup), fmt.Sprintf("%.3f", r.FlatErrorPct)},
	})
	return b.String()
}

package experiments

import (
	"fmt"
	"sort"
	"strings"

	"stemroot/internal/hwmodel"
	"stemroot/internal/parallel"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// Row is one (workload, method) data point averaged over repetitions —
// the unit behind Figures 7, 8, and 9 and Table 3.
type Row struct {
	Suite    string
	Workload string
	Method   string
	// Speedup is the harmonic mean over repetitions; ErrorPct the
	// arithmetic mean (following §5's averaging rules).
	Speedup  float64
	ErrorPct float64
	Samples  int
}

// SuiteComparison evaluates every method on every workload of a suite
// against the RTX 2080 hardware profile, averaged over cfg.Reps
// repetitions. This produces the Figure 7 (speedup) and Figure 8 (error)
// series and the per-suite Table 3 columns.
//
// Workloads are independent (per-workload seeds, per-workload method
// instances), so they fan out over cfg.Sim.Workers workers on the
// shared-cursor scheduler — workload costs are heavily skewed (one
// HuggingFace workload simulates orders of magnitude more invocations than
// a small Rodinia one), and each free worker claims the next workload
// instead of waiting behind a straggler. Per-workload row
// groups are flattened in workload order, making the output identical for
// every worker count.
func SuiteComparison(cfg Config, suite string) ([]Row, error) {
	ws, err := suiteWorkloads(cfg, suite)
	if err != nil {
		return nil, err
	}

	perWorkload, err := parallel.MapStealing(len(ws), parallel.Workers(cfg.Sim.Workers),
		func(i int) ([]Row, error) { return workloadRows(cfg, suite, ws[i]) })
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, group := range perWorkload {
		rows = append(rows, group...)
	}
	return rows, nil
}

// table3Suites are Table 3's suites, in its order.
var table3Suites = []string{workloads.SuiteRodinia, workloads.SuiteCASIO, workloads.SuiteHuggingFace}

// suiteWorkloads generates one of Table 3's suites at cfg's scale.
func suiteWorkloads(cfg Config, suite string) ([]*trace.Workload, error) {
	scale := cfg.CASIOScale
	if suite == workloads.SuiteHuggingFace {
		scale = cfg.HFScale
	}
	return workloads.Suite(suite, cfg.Seed, scale)
}

// workloadRows evaluates every (method, rep) pair on one workload — the
// unit of SuiteComparison's fan-out.
func workloadRows(cfg Config, suite string, w *trace.Workload) ([]Row, error) {
	prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
	byMethod := make(map[string][]sampling.Outcome)
	var order []string
	for rep := 0; rep < cfg.Reps; rep++ {
		for _, m := range cfg.methods(suite, rep) {
			plan, err := m.Plan(w, prof)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", m.Name(), w.Name, err)
			}
			out, err := sampling.Evaluate(plan, w, prof)
			if err != nil {
				return nil, err
			}
			if _, ok := byMethod[m.Name()]; !ok {
				order = append(order, m.Name())
			}
			byMethod[m.Name()] = append(byMethod[m.Name()], out)
		}
	}
	var rows []Row
	for _, name := range order {
		outs := byMethod[name]
		row := Row{
			Suite:    suite,
			Workload: w.Name,
			Method:   name,
			Speedup:  sampling.HarmonicMeanSpeedup(outs),
			ErrorPct: sampling.MeanErrorPct(outs),
		}
		for _, o := range outs {
			row.Samples += o.Samples
		}
		row.Samples /= len(outs)
		rows = append(rows, row)
	}
	return rows, nil
}

// MethodSummary aggregates rows per method across a suite.
type MethodSummary struct {
	Method   string
	Speedup  float64 // harmonic mean over workloads
	ErrorPct float64 // arithmetic mean over workloads
}

// Summarize reduces per-workload rows to per-method suite averages.
func Summarize(rows []Row) []MethodSummary {
	type acc struct {
		inv   float64
		n     int
		errs  float64
		first int
	}
	accs := make(map[string]*acc)
	for i, r := range rows {
		a := accs[r.Method]
		if a == nil {
			a = &acc{first: i}
			accs[r.Method] = a
		}
		if r.Speedup > 0 {
			a.inv += 1 / r.Speedup
			a.n++
		}
		a.errs += r.ErrorPct
	}
	perMethod := make(map[string]int)
	for _, r := range rows {
		perMethod[r.Method]++
	}
	var out []MethodSummary
	for name, a := range accs {
		s := MethodSummary{Method: name, ErrorPct: a.errs / float64(perMethod[name])}
		if a.inv > 0 {
			s.Speedup = float64(a.n) / a.inv
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		return accs[out[i].Method].first < accs[out[j].Method].first
	})
	return out
}

// Table3Result holds the paper's headline comparison: average speedup and
// error of the sampling methods on all three suites.
type Table3Result struct {
	Suites []string
	// Rows[suite] holds that suite's per-method summaries.
	Rows map[string][]MethodSummary
	// PerWorkload keeps the underlying data (Figures 7-9).
	PerWorkload map[string][]Row
}

// Table3 runs the full three-suite comparison.
func Table3(cfg Config) (*Table3Result, error) {
	res := &Table3Result{
		Rows:        make(map[string][]MethodSummary),
		PerWorkload: make(map[string][]Row),
	}
	for _, suite := range table3Suites {
		rows, err := SuiteComparison(cfg, suite)
		if err != nil {
			return nil, err
		}
		res.Suites = append(res.Suites, suite)
		res.Rows[suite] = Summarize(rows)
		res.PerWorkload[suite] = rows
	}
	return res, nil
}

// Render prints Table 3 in the paper's layout.
func (t *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: average speedup (x) and error (%) per suite\n\n")
	for _, suite := range t.Suites {
		fmt.Fprintf(&b, "[%s]\n", suite)
		var rows [][]string
		for _, s := range t.Rows[suite] {
			rows = append(rows, []string{
				s.Method,
				fmt.Sprintf("%.2f", s.Speedup),
				fmt.Sprintf("%.2f", s.ErrorPct),
			})
		}
		writeTable(&b, []string{"method", "speedup(x)", "error(%)"}, rows)
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFigure7 prints per-workload speedups (log-scale data series of
// Figure 7); RenderFigure8 the corresponding errors; RenderFigure9 the
// scatter pairs.
func RenderFigure7(rows []Row) string {
	return renderPerWorkload(rows, "speedup(x)", func(r Row) float64 { return r.Speedup })
}
func RenderFigure8(rows []Row) string {
	return renderPerWorkload(rows, "error(%)", func(r Row) float64 { return r.ErrorPct })
}

func renderPerWorkload(rows []Row, valueName string, get func(Row) float64) string {
	var b strings.Builder
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{r.Workload, r.Method, fmt.Sprintf("%.3f", get(r))})
	}
	writeTable(&b, []string{"workload", "method", valueName}, table)
	return b.String()
}

// RenderFigure9 prints (speedup, error) scatter pairs per method.
func RenderFigure9(rows []Row) string {
	var b strings.Builder
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Method, r.Workload,
			fmt.Sprintf("%.2f", r.Speedup),
			fmt.Sprintf("%.3f", r.ErrorPct),
		})
	}
	writeTable(&b, []string{"method", "workload", "speedup(x)", "error(%)"}, table)
	return b.String()
}

// Figure1Entry is one execution-time histogram of a repeated kernel.
type Figure1Entry struct {
	Workload string
	Kernel   string
	Times    []float64
	Modes    int
	CoV      float64
}

// Figure1 collects the paper's motivating histograms: kernels from ML
// workloads whose repeated invocations show multiple peaks or wide spread.
func Figure1(cfg Config) ([]Figure1Entry, error) {
	targets := []struct{ workload, kernel string }{
		{"resnet50_infer", "bn_fw_inf_CUDNN"},
		{"resnet50_infer", "winograd_fwd_3x3"},
		{"unet_infer", "max_pool_fw"},
		{"bert_infer", "sgemm_128x64_nn"},
	}
	// Histograms need enough repeated invocations for mode detection.
	scale := cfg.CASIOScale
	if scale < 0.05 {
		scale = 0.05
	}
	ws := workloads.CASIO(cfg.Seed, scale)
	byName := make(map[string]*trace.Workload)
	for _, w := range ws {
		byName[w.Name] = w
	}
	var out []Figure1Entry
	for _, tg := range targets {
		w := byName[tg.workload]
		if w == nil {
			return nil, fmt.Errorf("experiments: workload %q missing", tg.workload)
		}
		model := hwmodel.New(hwmodel.RTX2080, w.Seed)
		var times []float64
		for i := range w.Invs {
			if w.Invs[i].Name == tg.kernel {
				times = append(times, model.Time(&w.Invs[i]))
			}
		}
		if len(times) == 0 {
			return nil, fmt.Errorf("experiments: kernel %q missing in %q", tg.kernel, tg.workload)
		}
		out = append(out, Figure1Entry{
			Workload: tg.workload,
			Kernel:   tg.kernel,
			Times:    times,
			Modes:    countModes(times),
			CoV:      cov(times),
		})
	}
	return out, nil
}

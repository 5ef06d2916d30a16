// Package experiments implements one runner per table and figure of the
// paper's evaluation (§5): speedup/error comparisons (Table 3, Figures 7-9),
// signature-blindness analysis (Figure 10), the error-bound sweep
// (Figure 11), simulator-based design-space exploration (Table 4,
// Figure 12), cross-GPU portability (Figure 13), microarchitectural metric
// validation (Figure 14), profiling overheads (Table 5), the §3.3/§6.2
// ablations, and the empirical coverage of STEM's bound. Each runner returns
// a structured result with a Render method that prints the same rows/series
// the paper reports.
//
// # Concurrency
//
// The heavy runners fan out over Config.Sim.Workers workers (0 = one per
// CPU, counts above the CPU count clamped — parallel.Workers): the
// per-workload fan-outs (SuiteComparison, WarmupAblation, Figure11, Table4
// within each variant) use parallel.MapStealing, because workload costs are
// heavily skewed — one HuggingFace workload outweighs many Rodinia ones —
// and its shared cursor keeps every free worker claiming the next workload,
// where static assignment would serialize stragglers; Confidence's coverage
// grid fans out across each suite's workloads the same way, every workload
// scoring its seeds in order. The simulator-bound runners
// additionally inherit the pipeline's per-segment kernel parallelism. Every work unit
// derives its own seeds and constructs its own method/profiler instances,
// and partial results are folded in fixed unit order, so runner output is
// bit-identical for every Sim.Workers value — pinned by the determinism
// regression tests. DESIGN.md §6 states the full concurrency architecture.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"stemroot/internal/core"
	"stemroot/internal/pipeline"
	"stemroot/internal/sampling"
)

// Config scales the experiments. Quick() keeps everything test-sized;
// PaperScale() approaches the paper's workload sizes for benchmark runs.
type Config struct {
	Seed uint64
	// Reps is the number of repetitions averaged per data point (paper: 10).
	Reps int
	// CASIOScale and HFScale multiply the suite generators' iteration
	// counts (1.0 = ~64k calls per CASIO workload).
	CASIOScale, HFScale float64
	// RandomFracRodinia and RandomFracML are the uniform-random baseline's
	// selection probabilities (paper: 10% and 0.1%).
	RandomFracRodinia, RandomFracML float64
	// DSEMaxCalls caps per-workload invocations in simulator experiments.
	DSEMaxCalls int
	// Sim is what every simulator-bound runner hands to the pipeline, as
	// the CLI bound it (internal/cliopts): workers and the segment cache
	// that lets fig11, table4, flush and warmup reuse each other's ground
	// truth. Sim.Workers also sizes the runners' own
	// per-workload fan-outs (0 = one per CPU, 1 = serial); results are
	// identical for every value and with or without a cache (package doc).
	Sim pipeline.Options
}

// serialSimOpts is Sim for runners that parallelize at the workload level
// and therefore keep each workload's simulation serial. The shared cache
// still applies.
func (c Config) serialSimOpts() pipeline.Options {
	o := c.Sim
	o.Workers = 1
	return o
}

// Quick returns a configuration sized for unit tests (seconds, not hours).
func Quick() Config {
	return Config{
		Seed:              1,
		Reps:              2,
		CASIOScale:        0.02,
		HFScale:           0.01,
		RandomFracRodinia: 0.10,
		RandomFracML:      0.01,
		DSEMaxCalls:       40,
	}
}

// PaperScale returns a configuration close to the paper's setup. CASIO
// workloads reach their ~64k-call sizes; the HuggingFace suite stays
// scale-reduced (see internal/workloads) but large enough to exercise the
// statistical machinery.
func PaperScale() Config {
	return Config{
		Seed:              1,
		Reps:              10,
		CASIOScale:        1.0,
		HFScale:           0.5,
		RandomFracRodinia: 0.10,
		RandomFracML:      0.001,
		DSEMaxCalls:       120,
	}
}

// stemParams is STEM at the paper's ε and confidence, with the given seed.
func (c Config) stemParams(seed uint64) core.Params {
	p := core.DefaultParams()
	p.Seed = seed
	return p
}

// pkaTuned and sieveTuned list the workloads the paper hand-tuned to use
// random (instead of first-chronological) representatives (§5.1).
var (
	pkaTuned   = map[string]bool{"gaussian": true, "heartwall": true}
	sieveTuned = map[string]bool{
		"gaussian": true, "heartwall": true,
		"ssdrn34_infer": true, "unet_infer": true, "unet_train": true,
	}
)

// methods constructs the per-rep method set for a suite. HuggingFace-scale
// workloads only run Random and STEM — the paper marks PKA/Sieve/Photon
// N/A there due to profiling overhead (Table 3).
func (c Config) methods(suite string, rep int) []sampling.Method {
	seed := c.Seed + uint64(rep)*1000003
	randomFrac := c.RandomFracML
	if suite == "rodinia" {
		randomFrac = c.RandomFracRodinia
	}
	random := &sampling.Random{Frac: randomFrac, Seed: seed}

	stem := &sampling.STEMRoot{Params: c.stemParams(seed)}

	if suite == "huggingface" {
		return []sampling.Method{random, stem}
	}

	pka := sampling.NewPKA(seed)
	pka.TunedWorkloads = pkaTuned
	sieve := sampling.NewSieve(seed)
	sieve.TunedWorkloads = sieveTuned
	photon := &sampling.Photon{}
	return []sampling.Method{random, pka, sieve, photon, stem}
}

// writeTable renders rows of columns with aligned widths.
func writeTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

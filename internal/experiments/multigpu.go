package experiments

import (
	"fmt"
	"strings"

	"stemroot/internal/chakra"
	"stemroot/internal/etsample"
	"stemroot/internal/hwmodel"
	"stemroot/internal/multigpu"
	"stemroot/internal/rng"
	"stemroot/internal/sampling"
)

// MultiGPUPoint is one rank-count measurement of the §6.2 extension:
// STEM-based node sampling on a Chakra-style training trace versus a
// uniform random node-sampling baseline.
type MultiGPUPoint struct {
	Ranks          int
	ComputeNodes   int
	STEMErrorPct   float64
	STEMSpeedup    float64
	RandomErrorPct float64
}

// MultiGPU runs the execution-trace sampling extension across rank counts.
func MultiGPU(cfg Config) ([]MultiGPUPoint, error) {
	var out []MultiGPUPoint
	for _, ranks := range []int{2, 4, 8} {
		g, err := chakra.GenerateTraining(chakra.TrainingConfig{
			Ranks: ranks, Steps: 6, Layers: 10,
			BucketBytes: 64 << 20, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		model := hwmodel.New(hwmodel.H100, cfg.Seed)
		times := make([]float64, len(g.Nodes))
		for i := range g.Nodes {
			if g.Nodes[i].Kind == chakra.Compute {
				times[i] = model.Time(g.Nodes[i].Inv)
			}
		}
		plan, err := etsample.BuildGraphPlan(g, times, cfg.stemParams(cfg.Seed))
		if err != nil {
			return nil, err
		}
		stemOut, err := plan.Evaluate(g, times)
		if err != nil {
			return nil, err
		}

		randErr, err := randomNodeSampling(g, times, stemOut.TruthUS, stemOut.SampledNodes, cfg.Seed)
		if err != nil {
			return nil, err
		}

		out = append(out, MultiGPUPoint{
			Ranks:          ranks,
			ComputeNodes:   stemOut.ComputeNodes,
			STEMErrorPct:   stemOut.ErrorPct,
			STEMSpeedup:    stemOut.Speedup,
			RandomErrorPct: randErr,
		})
	}
	return out, nil
}

// randomNodeSampling estimates the makespan, truthUS when replayed with
// times, using budget uniformly chosen compute nodes: unsampled nodes
// inherit the global mean of the sampled times (kernel identity ignored —
// the naive baseline).
func randomNodeSampling(g *chakra.Graph, times []float64, truthUS float64, budget int, seed uint64) (float64, error) {
	comp := g.ComputeNodes()
	r := rng.New(rng.Derive(seed, 0x469))
	perm := r.Perm(len(comp))
	if budget > len(comp) {
		budget = len(comp)
	}
	var sum float64
	for _, pi := range perm[:budget] {
		sum += times[comp[pi]]
	}
	mean := sum / float64(budget)

	est, err := multigpu.Simulate(g, func(id int) float64 {
		if g.Nodes[id].Kind != chakra.Compute {
			return 0
		}
		return mean
	})
	if err != nil {
		return 0, err
	}
	errPct, _ := sampling.Score(est.TotalUS, truthUS, 0)
	return errPct, nil
}

// RenderMultiGPU prints the extension results.
func RenderMultiGPU(pts []MultiGPUPoint) string {
	var b strings.Builder
	b.WriteString("S6.2 extension: node sampling on Chakra-style multi-GPU training traces\n\n")
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Ranks),
			fmt.Sprintf("%d", p.ComputeNodes),
			fmt.Sprintf("%.2f", p.STEMErrorPct),
			fmt.Sprintf("%.1fx", p.STEMSpeedup),
			fmt.Sprintf("%.2f", p.RandomErrorPct),
		})
	}
	writeTable(&b, []string{"ranks", "compute nodes", "stem err(%)", "stem speedup", "naive err(%)"}, rows)
	return b.String()
}

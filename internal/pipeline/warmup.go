package pipeline

import (
	"errors"
	"sort"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
	"stemroot/internal/trace"
)

// SampledSimWarm is SampledSimOpt with the §6.2 "lightweight warmup" strategy:
// before each sampled kernel, up to warmup immediately-preceding workload
// kernels are simulated to reconstruct the L2 state the kernel would have
// seen in the full run. Warmup kernels cost simulation time but do not
// contribute measurements.
//
// The returned warmupCycles is the simulation cost spent on warmup — the
// price of the strategy, to be charged against the speedup.
func SampledSimWarm(w *trace.Workload, cfg gpu.Config, lim kernelgen.Limits,
	indices []int, warmup int) (times map[int]float64, warmupCycles float64, err error) {

	if warmup < 0 {
		return nil, 0, errors.New("pipeline: negative warmup")
	}
	sim, err := gpu.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)

	out := make(map[int]float64, len(sorted))
	prevEnd := -1 // last workload position already simulated
	// One spec scratch for the whole replay: RunKernel reads the spec only
	// during the call, so reusing the variable keeps the loop allocation-free.
	var spec kernelgen.Spec
	for _, ix := range sorted {
		if ix < 0 || ix >= w.Len() {
			return nil, 0, errors.New("pipeline: sample index out of range")
		}
		start := ix - warmup
		if start <= prevEnd {
			start = prevEnd + 1
		}
		for j := start; j < ix; j++ {
			spec = kernelgen.FromInvocation(&w.Invs[j], lim)
			warmupCycles += sim.RunKernel(&spec).Cycles
		}
		spec = kernelgen.FromInvocation(&w.Invs[ix], lim)
		out[ix] = sim.RunKernel(&spec).Cycles
		prevEnd = ix
	}
	return out, warmupCycles, nil
}

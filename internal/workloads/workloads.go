package workloads

import (
	"fmt"

	"stemroot/internal/trace"
)

// Suite identifiers.
const (
	SuiteRodinia     = "rodinia"
	SuiteCASIO       = "casio"
	SuiteHuggingFace = "huggingface"
)

// Suite generates a named suite at the given scale (scale is ignored for
// Rodinia, whose sizes are fixed by the applications' iteration structure).
func Suite(name string, seed uint64, scale float64) ([]*trace.Workload, error) {
	switch name {
	case SuiteRodinia:
		return Rodinia(seed), nil
	case SuiteCASIO:
		return CASIO(seed, scale), nil
	case SuiteHuggingFace:
		return HuggingFace(seed, scale), nil
	}
	return nil, fmt.Errorf("workloads: unknown suite %q", name)
}

// ReduceForSim derives a shortened, footprint-scaled copy of a workload for
// full cycle-level simulation, mirroring the paper's §5.4 methodology
// ("reduced their sizes to run a full simulation within a few days"):
// at most maxCalls invocations are kept (evenly strided so trends like
// gaussian's decay survive) and memory footprints are divided by
// footprintDiv so working sets straddle the simulated L2 capacities.
func ReduceForSim(w *trace.Workload, maxCalls int, footprintDiv int64) *trace.Workload {
	if footprintDiv < 1 {
		footprintDiv = 1
	}
	out := &trace.Workload{Name: w.Name, Suite: w.Suite, Seed: w.Seed}
	n := len(w.Invs)
	stride := 1
	if maxCalls > 0 && n > maxCalls {
		stride = (n + maxCalls - 1) / maxCalls
	}
	for i := 0; i < n; i += stride {
		inv := w.Invs[i]
		inv.Seq = len(out.Invs)
		inv.Latent.FootprintBytes /= footprintDiv
		if inv.Latent.FootprintBytes < 4096 {
			inv.Latent.FootprintBytes = 4096
		}
		// Scale compute work down harder than the footprint so kernels stay
		// balanced and fast to simulate. Rodinia carries a 64x work scale
		// (real Rodinia kernels are multi-millisecond) that full simulation
		// does not need.
		workDiv := footprintDiv * 8
		if w.Suite == SuiteRodinia {
			workDiv = footprintDiv * 64
		}
		inv.Latent.ComputeWork /= workDiv
		if inv.Latent.ComputeWork < 1e5 {
			inv.Latent.ComputeWork = 1e5
		}
		out.Invs = append(out.Invs, inv)
	}
	return out
}

// DSERodinia returns the 11 reduced Rodinia workloads of the Table 4
// design-space exploration.
func DSERodinia(seed uint64, maxCalls int) []*trace.Workload {
	all := Rodinia(seed)
	// The paper uses 11 of the 13; drop the two longest-running ones.
	var out []*trace.Workload
	for _, w := range all {
		if w.Name == "cfd" || w.Name == "srad" {
			continue
		}
		out = append(out, ReduceForSim(w, maxCalls, 64))
	}
	return out
}

// DSEHuggingFace returns the 6 reduced HuggingFace workloads for Table 4.
func DSEHuggingFace(seed uint64, maxCalls int) []*trace.Workload {
	var out []*trace.Workload
	for _, w := range HuggingFace(seed, 0.01) {
		out = append(out, ReduceForSim(w, maxCalls, 64))
	}
	return out
}

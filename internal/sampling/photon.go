package sampling

import (
	"errors"

	"stemroot/internal/core"
	"stemroot/internal/trace"
)

// photonThreshold is the BBV similarity at or above which Photon deems two
// kernels identical (95 % in the paper's Table 1).
const photonThreshold = 0.95

// Photon implements the kernel-level portion of Photon (Liu, Sun, Carlson,
// MICRO'23) as characterized in the paper's Table 1: each kernel's GPU
// basic-block vector (trace.DefaultBBVDim blocks) is compared online against
// previously selected representatives of the same kernel name; a kernel
// joins an existing cluster when its BBV similarity reaches the threshold
// and its warp count matches, otherwise it becomes a new representative
// that must be simulated.
//
// The comparison cost is O(N·R·d) with R representatives — quadratic in N
// in the worst case, which is exactly the scalability wall §5.6 reports.
type Photon struct{}

// Name implements Method.
func (p *Photon) Name() string { return "photon" }

// Plan implements Method.
func (p *Photon) Plan(w *trace.Workload, _ *trace.Profile) (*Plan, error) {
	if w.Len() == 0 {
		return nil, errors.New("sampling: empty workload")
	}
	// Collect BBVs (the NVBit instrumentation step).
	bbvs := make([][]float64, w.Len())
	for i := range w.Invs {
		bbvs[i] = w.Invs[i].BBV(trace.DefaultBBVDim)
	}

	type rep struct {
		idx   int
		warps int
		count int
	}
	repsByName := make(map[string][]*rep)
	order := make([]*rep, 0, 64)

	for i := range w.Invs {
		inv := &w.Invs[i]
		reps := repsByName[inv.Name]
		var home *rep
		for _, r := range reps {
			if r.warps != inv.Warps() {
				continue
			}
			if trace.BBVSimilarity(bbvs[r.idx], bbvs[i]) >= photonThreshold {
				home = r
				break
			}
		}
		if home == nil {
			home = &rep{idx: i, warps: inv.Warps()}
			repsByName[inv.Name] = append(reps, home)
			order = append(order, home)
		}
		home.count++
	}

	plan := &Plan{Method: p.Name()}
	for _, r := range order {
		plan.Clusters = append(plan.Clusters, core.PlanCluster{
			Samples: []int{r.idx},
			Weight:  float64(r.count),
		})
	}
	return plan, nil
}

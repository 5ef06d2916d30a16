package sampling

import (
	"errors"
	"math"

	"stemroot/internal/cluster"
	"stemroot/internal/core"
	"stemroot/internal/rng"
	"stemroot/internal/trace"
)

// PKA implements Principal Kernel Analysis (Avalos Baddouh et al.,
// MICRO'21) as characterized in the paper's Table 1: k-means over 12
// instruction-level metrics (feature vectors z-normalized per dimension),
// sweeping k = 1..20 for the best clustering, then sampling a single kernel
// per cluster — the first chronological one — and weighting it by the
// cluster's population.
type PKA struct {
	Seed uint64
	// TunedWorkloads lists workload names where, as in the paper's §5.1
	// hand-tuning, the representative is drawn randomly instead of
	// first-chronologically (e.g. gaussian, heartwall).
	TunedWorkloads map[string]bool
}

const (
	// pkaKMax bounds the k sweep (paper: 20).
	pkaKMax = 20
	// pkaSilhouetteCap subsamples the silhouette scoring for large
	// workloads.
	pkaSilhouetteCap = 256
)

// NewPKA returns PKA with the given seed and no tuned workloads.
func NewPKA(seed uint64) *PKA {
	return &PKA{Seed: seed}
}

// Name implements Method.
func (p *PKA) Name() string { return "pka" }

// Plan implements Method.
func (p *PKA) Plan(w *trace.Workload, _ *trace.Profile) (*Plan, error) {
	n := w.Len()
	if n == 0 {
		return nil, errors.New("sampling: empty workload")
	}
	feats := make([][]float64, n)
	for i := range w.Invs {
		feats[i] = intensiveFeatures(&w.Invs[i])
	}
	normalizeColumns(feats)

	res, err := cluster.SweepK(feats, 1, pkaKMax, cluster.Options{
		Seed:    rng.Derive(p.Seed, w.Seed, rng.HashString("pka")),
		MaxIter: 50,
	}, pkaSilhouetteCap)
	if err != nil {
		return nil, err
	}

	random := p.TunedWorkloads[w.Name]
	gen := rng.New(rng.Derive(p.Seed, w.Seed, rng.HashString("pka-pick")))
	plan := &Plan{Method: p.Name()}
	for _, members := range res.Groups() {
		rep := members[0] // first chronological (members are in index order)
		if random {
			rep = members[gen.Intn(len(members))]
		}
		plan.Clusters = append(plan.Clusters, core.PlanCluster{
			Samples: []int{rep},
			Weight:  float64(len(members)),
		})
	}
	return plan, nil
}

// intensiveFeatures builds PKA's 12-dimensional feature vector. Following
// the original PKA, the metrics are *intensive* (rates and fractions —
// instruction-mix shares, occupancy, register pressure), not absolute
// counts: hardware profilers report per-kernel rates, and this is precisely
// why PKA cannot distinguish invocations that run the same code over
// different amounts of data (the paper's heartwall/gaussian failure mode).
func intensiveFeatures(inv *trace.Invocation) []float64 {
	m := inv.Metrics
	total := m.TotalInstrs
	if total <= 0 {
		total = 1
	}
	return []float64{
		m.FP32Ops / total,
		m.FP16Ops / total,
		m.IntOps / total,
		m.GlobalLoads / total,
		m.GlobalStores / total,
		m.SharedAccess / total,
		m.BranchInstrs / total,
		m.SyncInstrs / total,
		m.AtomicInstrs / total,
		m.RegPerThread / 256,
		m.Occupancy,
		float64(inv.Block.Count()) / 1024,
	}
}

// normalizeColumns z-normalizes each feature dimension in place so k-means
// distances are not dominated by large-magnitude metrics. Dimensions whose
// spread is below hardware-counter noise (relative standard deviation under
// ~2%) are treated as constant and zeroed: z-scaling them would amplify
// measurement jitter to unit variance and drown the genuinely
// discriminative dimensions.
func normalizeColumns(feats [][]float64) {
	if len(feats) == 0 {
		return
	}
	const counterNoise = 0.02
	dim := len(feats[0])
	for d := 0; d < dim; d++ {
		var mean float64
		for _, f := range feats {
			mean += f[d]
		}
		mean /= float64(len(feats))
		var ss float64
		for _, f := range feats {
			diff := f[d] - mean
			ss += diff * diff
		}
		sd := 0.0
		if len(feats) > 1 {
			sd = math.Sqrt(ss / float64(len(feats)-1))
		}
		if sd > counterNoise*(math.Abs(mean)+1e-12) {
			inv := 1 / sd
			for _, f := range feats {
				f[d] = (f[d] - mean) * inv
			}
		} else {
			for _, f := range feats {
				f[d] = 0
			}
		}
	}
}

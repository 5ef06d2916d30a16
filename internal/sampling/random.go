package sampling

import (
	"errors"
	"fmt"

	"stemroot/internal/core"
	"stemroot/internal/rng"
	"stemroot/internal/trace"
)

// Random is the uniform random sampling baseline: each kernel invocation is
// selected independently with probability Frac. The paper uses 10% for
// Rodinia and 0.1% for CASIO/HuggingFace (Table 3 footnote).
type Random struct {
	Frac float64
	Seed uint64
}

// Name implements Method.
func (r *Random) Name() string { return fmt.Sprintf("random_%g", r.Frac) }

// Plan implements Method. The estimator weight is 1/Frac (Horvitz–Thompson
// for Bernoulli sampling). If the draw selects nothing, the single first
// invocation is taken so the estimate is at least defined.
func (r *Random) Plan(w *trace.Workload, _ *trace.Profile) (*Plan, error) {
	if r.Frac <= 0 || r.Frac > 1 {
		return nil, errors.New("sampling: Random.Frac must be in (0,1]")
	}
	if w.Len() == 0 {
		return nil, errors.New("sampling: empty workload")
	}
	gen := rng.New(rng.Derive(r.Seed, w.Seed, rng.HashString("random")))
	var samples []int
	for i := range w.Invs {
		if gen.Float64() < r.Frac {
			samples = append(samples, i)
		}
	}
	c := core.PlanCluster{Samples: samples, Weight: 1 / r.Frac}
	if len(samples) == 0 {
		c = core.PlanCluster{Samples: []int{0}, Weight: float64(w.Len())}
	}
	return &Plan{Method: r.Name(), Plan: core.Plan{Clusters: []core.PlanCluster{c}}}, nil
}

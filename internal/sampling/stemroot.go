package sampling

import (
	"errors"

	"stemroot/internal/core"
	"stemroot/internal/trace"
)

// STEMRoot adapts the paper's full methodology (internal/core) to the
// Method interface: ROOT's hierarchical clustering of the execution-time
// profile followed by STEM's jointly optimized sample sizes.
type STEMRoot struct {
	Params core.Params
}

// NewSTEMRoot returns the method with the paper's default parameters
// (ε = 0.05, 95% confidence, k = 2) and the given seed.
func NewSTEMRoot(seed uint64) *STEMRoot {
	p := core.DefaultParams()
	p.Seed = seed
	return &STEMRoot{Params: p}
}

// Name implements Method. Params.Flat, which disables ROOT, names the
// ablation isolating ROOT's contribution.
func (s *STEMRoot) Name() string {
	if s.Params.Flat {
		return "stem_flat"
	}
	return "stem"
}

// Plan implements Method. This is the only method that reads the
// execution-time profile — its kernel signature per Table 1.
func (s *STEMRoot) Plan(w *trace.Workload, prof *trace.Profile) (*Plan, error) {
	if prof == nil {
		return nil, errors.New("sampling: STEM requires an execution-time profile")
	}
	if err := prof.Validate(w); err != nil {
		return nil, err
	}
	p := s.Params
	p.Seed = s.Params.Seed ^ w.Seed
	plan := &Plan{Method: s.Name()}
	if err := core.BuildPlanInto(&plan.Plan, w.Len(), func(i int) string { return w.Invs[i].Name }, prof.TimeUS, p); err != nil {
		return nil, err
	}
	return plan, nil
}

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
	plan := new(Plan)
	if err := s.PlanInto(plan, w, prof); err != nil {
		return nil, err
	}
	return plan, nil
}

// PlanInto is Plan written into dst, reusing the clusters, member and sample
// arrays a plan built earlier into dst holds (core.BuildPlanInto): for a
// caller that plans again and again and keeps none of the plans. On an
// error dst holds no usable plan.
func (s *STEMRoot) PlanInto(dst *Plan, w *trace.Workload, prof *trace.Profile) error {
	if prof == nil {
		return errors.New("sampling: STEM requires an execution-time profile")
	}
	if err := prof.Validate(w); err != nil {
		return err
	}
	p := s.Params
	p.Seed = s.Params.Seed ^ w.Seed
	dst.Method = s.Name()
	return core.BuildPlanInto(&dst.Plan, w.Len(), func(i int) string { return w.Invs[i].Name }, prof.TimeUS, p)
}

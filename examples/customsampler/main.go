// Custom sampler: plug a new sampling method into the framework by
// implementing the sampling.Method interface, then benchmark it against
// STEM+ROOT on the same workload. A method returns its clusters as
// core.PlanCluster records, the same record STEM+ROOT's plans are made of;
// filling Samples and Weight is enough for the shared estimator
// (core.Plan.Estimate) and sampling.Evaluate.
//
// The custom method here is "stratified-by-name": one random sample per
// kernel name, weighted by the name's invocation count — a reasonable
// first idea that the paper's heterogeneous kernels defeat.
//
// Run with: go run ./examples/customsampler
package main

import (
	"errors"
	"fmt"
	"log"

	"stemroot/internal/core"
	"stemroot/internal/hwmodel"
	"stemroot/internal/rng"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// nameStratified samples one random invocation per kernel name.
type nameStratified struct {
	seed uint64
}

func (n *nameStratified) Name() string { return "name_stratified" }

func (n *nameStratified) Plan(w *trace.Workload, _ *trace.Profile) (*sampling.Plan, error) {
	if w.Len() == 0 {
		return nil, errors.New("empty workload")
	}
	gen := rng.New(rng.Derive(n.seed, w.Seed))
	plan := &sampling.Plan{Method: n.Name()}
	// First-appearance order, not map order: gen is consumed per cluster,
	// so iteration order must be deterministic for reproducible plans.
	groups := w.GroupByName()
	for _, name := range w.KernelNames() {
		idxs := groups[name]
		rep := idxs[gen.Intn(len(idxs))]
		plan.Clusters = append(plan.Clusters, core.PlanCluster{
			Samples: []int{rep},
			Weight:  float64(len(idxs)),
		})
	}
	return plan, nil
}

func main() {
	log.SetFlags(0)

	var resnet = workloads.CASIO(3, 0.1)[5] // resnet50_infer
	prof := hwmodel.New(hwmodel.RTX2080, resnet.Seed).Profile(resnet)
	fmt.Printf("workload: %s (%d invocations)\n\n", resnet.Name, resnet.Len())

	methods := []sampling.Method{
		&nameStratified{seed: 3},
		sampling.NewSTEMRoot(3),
	}
	fmt.Printf("%-16s %10s %12s %10s\n", "method", "samples", "speedup(x)", "error(%)")
	for _, m := range methods {
		plan, err := m.Plan(resnet, prof)
		if err != nil {
			log.Fatal(err)
		}
		out, err := sampling.Evaluate(plan, resnet, prof)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %10d %12.1f %10.3f\n", out.Method, out.Samples, out.Speedup, out.ErrorPct)
	}

	fmt.Println("\nOne sample per name cannot represent a kernel that runs in")
	fmt.Println("several contexts (bn_fw_inf has three execution-time peaks in")
	fmt.Println("this workload); STEM+ROOT samples each peak separately with a")
	fmt.Println("statistically sized budget.")
}

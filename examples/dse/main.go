// Design-space exploration: use one set of sampling information — built
// once from a hardware execution-time profile — to drive sampled
// cycle-level simulations across several GPU configurations (the paper's
// Table 4 scenario).
//
// For each microarchitecture variant the example runs a full simulation
// (ground truth) and a STEM-sampled simulation of a reduced Rodinia
// workload, and reports the per-variant cycle counts and sampling error,
// and the paired speedup (cycles over baseline's): true, estimated, and its error.
//
// Run with: go run ./examples/dse
package main

import (
	"fmt"
	"log"

	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/pipeline"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

func main() {
	log.SetFlags(0)

	// A reduced heartwall: its first invocation does ~1/1500 of the work
	// of the rest, the paper's canonical trap for naive sampling.
	var w *trace.Workload
	for _, cand := range workloads.DSERodinia(7, 60) {
		if cand.Name == "heartwall" {
			w = cand
		}
	}
	if w == nil {
		log.Fatal("heartwall missing")
	}
	lim := kernelgen.DSELimits()
	fmt.Printf("workload: %s (%d invocations)\n\n", w.Name, w.Len())

	stem := sampling.NewSTEMRoot(7)
	fmt.Printf("%-12s %14s %14s %10s %10s %10s %10s %10s\n",
		"variant", "full cycles", "estimated", "error(%)", "speedup(x)", "pair(x)", "est pair", "pair(%)")
	var base pipeline.Result // gpu.DSEVariants starts with baseline
	for _, variant := range gpu.DSEVariants {
		cfg, err := gpu.Variant(variant)
		if err != nil {
			log.Fatal(err)
		}
		full, err := pipeline.FullSimOpt(w, cfg, lim, pipeline.Options{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := pipeline.RunOpt(w, hwmodel.RTX2080, stem, cfg, lim, full, pipeline.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if variant == "baseline" {
			base = res
		}
		pair, estPair := res.FullCycles/base.FullCycles, res.EstimateCycles/base.EstimateCycles
		pairErr, _ := sampling.Score(estPair, pair, 0)
		fmt.Printf("%-12s %14.0f %14.0f %10.2f %10.1f %10.4f %10.4f %10.2f\n", variant, res.FullCycles,
			res.EstimateCycles, res.Outcome.ErrorPct, res.Outcome.Speedup, pair, estPair, pairErr)
	}
	fmt.Println("\nThe same sampling information (built once from the RTX 2080")
	fmt.Println("profile) estimates cycles accurately on every variant — the")
	fmt.Println("execution-time signature survives microarchitectural change.")
}

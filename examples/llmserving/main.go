// LLM serving: sample a large-scale transformer serving trace (the
// HuggingFace-suite scenario from the paper's evaluation) and compare
// STEM+ROOT against uniform random sampling.
//
// The GPT-2 style workload interleaves prefill passes (long sequences,
// large GEMMs) with decode passes (single-token GEMMs), so every
// transformer kernel has a strongly bimodal execution-time distribution —
// exactly the runtime heterogeneity kernel signatures miss.
//
// Run with: go run ./examples/llmserving
package main

import (
	"fmt"
	"log"

	"stemroot/internal/hwmodel"
	"stemroot/internal/sampling"
	"stemroot/internal/workloads"
)

func main() {
	log.SetFlags(0)

	// Generate the serving trace and profile it on the H100 model.
	var gpt2 = workloads.HuggingFace(42, 0.2)[4] // gpt2
	fmt.Printf("workload: %s (%d kernel invocations, %d kernel types)\n",
		gpt2.Name, gpt2.Len(), len(gpt2.KernelNames()))

	prof := hwmodel.New(hwmodel.H100, gpt2.Seed).Profile(gpt2)
	fmt.Printf("profiled total: %.1f ms on %s\n\n", prof.TotalTime()/1000, prof.Device)

	methods := []sampling.Method{
		&sampling.Random{Frac: 0.001, Seed: 1},
		sampling.NewSTEMRoot(1),
	}
	fmt.Printf("%-14s %10s %12s %10s\n", "method", "samples", "speedup(x)", "error(%)")
	for _, m := range methods {
		plan, err := m.Plan(gpt2, prof)
		if err != nil {
			log.Fatal(err)
		}
		out, err := sampling.Evaluate(plan, gpt2, prof)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10d %12.1f %10.3f\n", out.Method, out.Samples, out.Speedup, out.ErrorPct)
	}

	// Show why: the qkv GEMM's two contexts (prefill vs decode).
	stem := sampling.NewSTEMRoot(1)
	plan, err := stem.Plan(gpt2, prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSTEM's clusters for gemm_qkv_f16 (prefill vs decode):")
	for ci := range plan.Clusters {
		c := &plan.Clusters[ci]
		if c.Kernel != "gemm_qkv_f16" {
			continue
		}
		fmt.Printf("  weight=%8.1f  representative time=%9.1f us  samples=%d\n",
			c.Weight, prof.TimeUS[c.Samples[0]], len(c.Samples))
	}
}

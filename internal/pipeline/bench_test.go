package pipeline

import (
	"fmt"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
	"stemroot/internal/simcache"
	"stemroot/internal/workloads"
)

// BenchmarkFullSim is the scaling sweep of the segmented simulation pass:
// a fixed j ∈ {1, 2, 4, 8, 16} ladder, so runs on different machines carry
// a comparable speedup curve. Sub-benchmark names carry the
// requested pool size (j1 = serial baseline); on an N-core machine jN
// should approach Nx the j1 throughput while producing bit-identical
// cycles, and requests beyond N are clamped to N workers
// (parallel.Workers), so on a 1-core CI container every rung must match j1
// within timing noise.
func BenchmarkFullSim(b *testing.B) {
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	ws := workloads.DSERodinia(1, 120)
	w := ws[0]
	for _, jobs := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("j%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FullSimOpt(w, cfg, lim, Options{Workers: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullSimCached measures the segment cache's effect on the full
// ground-truth pass: "cold" pays one simulation plus cache bookkeeping
// (every segment a miss), "warm" replays the identical workload against a
// primed cache (every segment a hit — key derivation and copy only). The
// warm/cold ratio is the per-process reuse speedup the experiment harness
// sees whenever ground truth recurs; the acceptance bar is warm >= 5x cold.
func BenchmarkFullSimCached(b *testing.B) {
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	w := workloads.DSERodinia(1, 120)[0]

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache, err := simcache.New(simcache.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := FullSimOpt(w, cfg, lim, Options{Workers: 1, Cache: cache}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache, err := simcache.New(simcache.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := FullSimOpt(w, cfg, lim, Options{Workers: 1, Cache: cache}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := FullSimOpt(w, cfg, lim, Options{Workers: 1, Cache: cache}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

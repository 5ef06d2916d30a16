package pipeline

import (
	"hash/fnv"
	"math"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
	"stemroot/internal/workloads"
)

// cyclesHash folds the exact float64 bit patterns of a cycle sequence into
// an FNV-1a hash, so one mismatched bit anywhere in a workload's
// per-invocation cycles fails the comparison.
func cyclesHash(cycles []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range cycles {
		u := math.Float64bits(c)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFullSimGolden pins the full-simulation ground truth bit-for-bit on
// fixed-seed Rodinia (DSE-reduced, seed 1) and CASIO bert_infer (seed 3)
// workloads. The values were recorded from internal/gpu's argmin reference
// loop (refSim in gpu/oracle_test.go, one fresh reference per 16-kernel
// replay segment — NOT from the optimized engine) under EngineFingerprint
// "stemroot-gpu-engine-v3-ready-id-rule". The hash covers every
// invocation's cycle count; first-cycle values localize a failure to "wrong
// from the start" vs "diverged later". Segmentation, per-worker simulator
// reuse, the simulator pool and the engine's queues must all be invisible
// here.
func TestFullSimGolden(t *testing.T) {
	type golden struct {
		name  string
		n     int
		hash  uint64
		first float64
	}
	rodinia := []golden{
		{"backprop", 40, 0xbe621fcf637fa5f4, 2022.074999999998},
		{"bfs", 24, 0xeebce2f98c224d1d, 4812.597858653806},
		{"btree", 40, 0xa80823fd1ed9444a, 12526.650863677052},
		{"gaussian", 40, 0xfa2186114693faa7, 3590.563514835931},
		{"heartwall", 35, 0xebd425910dfb836c, 1666.6115624999998},
		{"hotspot", 40, 0x2f437832e8d787c3, 3325.567831415778},
		{"kmeans", 26, 0x9ff27da3ed9f2d9a, 5910.552280325626},
		{"lavamd", 5, 0xf9709ddc65083093, 20905.267182254836},
		{"lud", 39, 0x5026301c7cdb90df, 5401.800000000009},
		{"nw", 37, 0xfa69b56cbd1e01c5, 1052.1977000000002},
		{"pf_float", 34, 0x3be62beafb095c6e, 1144.6778750000003},
	}
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	ws := workloads.DSERodinia(1, 40)
	if len(ws) != len(rodinia) {
		t.Fatalf("DSERodinia returned %d workloads, golden has %d", len(ws), len(rodinia))
	}
	for i, w := range ws {
		g := rodinia[i]
		if w.Name != g.name {
			t.Fatalf("workload %d is %q, golden expects %q", i, w.Name, g.name)
		}
		cycles, err := FullSimOpt(w, cfg, lim, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(cycles) != g.n {
			t.Errorf("%s: %d invocations, want %d", g.name, len(cycles), g.n)
			continue
		}
		if cycles[0] != g.first {
			t.Errorf("%s: first cycles %v, want %v", g.name, cycles[0], g.first)
		}
		if h := cyclesHash(cycles); h != g.hash {
			t.Errorf("%s: cycle hash %#016x, want %#016x", g.name, h, g.hash)
		}
	}

	// CASIO path: different generator family and DefaultLimits scale.
	cas := workloads.CASIO(3, 0.05)
	w := workloads.ReduceForSim(cas[0], 30, 64)
	g := golden{"bert_infer", 30, 0x502d3405f2fe5934, 1085.1000000000001}
	if w.Name != g.name {
		t.Fatalf("CASIO workload is %q, golden expects %q", w.Name, g.name)
	}
	cycles, err := FullSimOpt(w, gpu.Baseline(), kernelgen.DefaultLimits(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != g.n || cycles[0] != g.first || cyclesHash(cycles) != g.hash {
		t.Errorf("%s: n=%d first=%v hash=%#016x, want n=%d first=%v hash=%#016x",
			g.name, len(cycles), cycles[0], cyclesHash(cycles), g.n, g.first, g.hash)
	}
}

package workloads

import (
	"math"

	"stemroot/internal/trace"
)

// Rodinia returns the 13 synthetic Rodinia workloads. The suite reproduces
// the irregular behaviours the paper calls out in §5.1: gaussian's steadily
// shrinking per-iteration work, heartwall's tiny first invocation followed
// by ~1500x larger ones, pathfinder's 100x-longer outlier kernels, and
// bfs's frontier-dependent kernel times — the cases where
// first-chronological sampling catastrophically misestimates total time.
func Rodinia(seed uint64) []*trace.Workload {
	gens := []func(uint64) *trace.Workload{
		rodiniaBackprop, rodiniaBFS, rodiniaBTree, rodiniaCFD,
		rodiniaGaussian, rodiniaHeartwall, rodiniaHotspot, rodiniaKmeans,
		rodiniaLavaMD, rodiniaLUD, rodiniaNW, rodiniaPathfinder, rodiniaSRAD,
	}
	out := make([]*trace.Workload, 0, len(gens))
	for _, g := range gens {
		out = append(out, g(seed))
	}
	return out
}

func rodiniaBackprop(seed uint64) *trace.Workload {
	b := NewBuilder("backprop", "rodinia", seed)
	forward := &KernelDef{
		Name: "bpnn_layerforward", Grid: trace.Dim3{X: 256}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.45, Locality: 0.7, Work: 4e8, Footprint: 16 << 20,
		RegPerThread: 24,
	}
	adjust := &KernelDef{
		Name: "bpnn_adjust_weights", Grid: trace.Dim3{X: 256}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.6, Locality: 0.6, Work: 3e8, Footprint: 16 << 20,
		RegPerThread: 20,
	}
	for i := 0; i < 120; i++ {
		b.Add(forward, 0, 1)
		b.Add(adjust, 0, 1)
	}
	return b.Workload()
}

func rodiniaBFS(seed uint64) *trace.Workload {
	b := NewBuilder("bfs", "rodinia", seed)
	k1 := &KernelDef{
		Name: "bfs_kernel", Grid: trace.Dim3{X: 512}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.8, Locality: 0.25, RandomAccess: 0.7,
		Work: 2e8, Footprint: 64 << 20, BranchDiv: 0.5,
		InstrsScaleWithWork: true, RegPerThread: 16,
	}
	k2 := &KernelDef{
		Name: "bfs_update", Grid: trace.Dim3{X: 512}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.7, Locality: 0.4, Work: 1e8, Footprint: 64 << 20,
		InstrsScaleWithWork: true, RegPerThread: 12,
	}
	// Frontier grows then shrinks over ~24 levels: log-normal hump.
	const levels = 24
	for i := 0; i < levels; i++ {
		x := float64(i-levels/2) / 5
		mult := math.Exp(-x*x) * 3
		if mult < 0.01 {
			mult = 0.01
		}
		b.Add(k1, 0, mult)
		b.Add(k2, 0, mult)
	}
	return b.Workload()
}

func rodiniaBTree(seed uint64) *trace.Workload {
	b := NewBuilder("btree", "rodinia", seed)
	findK := &KernelDef{
		Name: "findK", Grid: trace.Dim3{X: 1024}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.7, Locality: 0.35, RandomAccess: 0.6,
		Work: 3e8, Footprint: 128 << 20, BranchDiv: 0.3, RegPerThread: 18,
	}
	findRange := &KernelDef{
		Name: "findRangeK", Grid: trace.Dim3{X: 1024}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.7, Locality: 0.35, RandomAccess: 0.6,
		Work: 4e8, Footprint: 128 << 20, BranchDiv: 0.3, RegPerThread: 22,
	}
	for i := 0; i < 100; i++ {
		b.Add(findK, 0, 1)
	}
	for i := 0; i < 100; i++ {
		b.Add(findRange, 0, 1)
	}
	return b.Workload()
}

func rodiniaCFD(seed uint64) *trace.Workload {
	b := NewBuilder("cfd", "rodinia", seed)
	stepFactor := &KernelDef{
		Name: "compute_step_factor", Grid: trace.Dim3{X: 768}, Block: trace.Dim3{X: 192},
		MemIntensity: 0.55, Locality: 0.6, Work: 2e8, Footprint: 96 << 20, RegPerThread: 30,
	}
	flux := &KernelDef{
		Name: "compute_flux", Grid: trace.Dim3{X: 768}, Block: trace.Dim3{X: 192},
		MemIntensity: 0.7, Locality: 0.45, Work: 9e8, Footprint: 96 << 20, RegPerThread: 48,
	}
	timeStep := &KernelDef{
		Name: "time_step", Grid: trace.Dim3{X: 768}, Block: trace.Dim3{X: 192},
		MemIntensity: 0.6, Locality: 0.6, Work: 1.5e8, Footprint: 96 << 20, RegPerThread: 16,
	}
	for i := 0; i < 2000; i++ {
		b.Add(stepFactor, 0, 1)
		b.Add(flux, 0, 1)
		b.Add(timeStep, 0, 1)
	}
	return b.Workload()
}

func rodiniaGaussian(seed uint64) *trace.Workload {
	b := NewBuilder("gaussian", "rodinia", seed)
	fan1 := &KernelDef{
		Name: "Fan1", Grid: trace.Dim3{X: 16}, Block: trace.Dim3{X: 512},
		MemIntensity: 0.5, Locality: 0.7, Work: 2e8, Footprint: 8 << 20,
		InstrsScaleWithWork: true, RegPerThread: 10,
	}
	fan2 := &KernelDef{
		Name: "Fan2", Grid: trace.Dim3{X: 128}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.55, Locality: 0.65, Work: 6e8, Footprint: 8 << 20,
		InstrsScaleWithWork: true, RegPerThread: 14,
	}
	// Elimination over an N x N matrix: iteration i works on the trailing
	// (N-i) x (N-i) block, so work decays quadratically toward zero — the
	// paper's example of instructions "approaching zero in later iterations".
	const n = 256
	for i := 0; i < n-1; i++ {
		rem := float64(n-i) / n
		mult := rem * rem
		if mult < 1e-4 {
			mult = 1e-4
		}
		b.Add(fan1, 0, mult)
		b.Add(fan2, 0, mult)
	}
	return b.Workload()
}

func rodiniaHeartwall(seed uint64) *trace.Workload {
	b := NewBuilder("heartwall", "rodinia", seed)
	k := &KernelDef{
		Name: "heartwall_kernel", Grid: trace.Dim3{X: 51}, Block: trace.Dim3{X: 512},
		MemIntensity: 0.5, Locality: 0.6, Work: 1.5e9, Footprint: 32 << 20,
		InstrsScaleWithWork: true, RegPerThread: 40,
	}
	// First invocation processes only the setup frame: ~1500x less work
	// than the remaining frames (paper §5.1). First-chronological samplers
	// that pick it underestimate total time by ~99.9%.
	b.Add(k, 0, 1.0/1500)
	for i := 0; i < 103; i++ {
		b.Add(k, 0, 1)
	}
	return b.Workload()
}

func rodiniaHotspot(seed uint64) *trace.Workload {
	b := NewBuilder("hotspot", "rodinia", seed)
	k := &KernelDef{
		Name: "calculate_temp", Grid: trace.Dim3{X: 1024}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.55, Locality: 0.75, Work: 3e8, Footprint: 48 << 20, RegPerThread: 28,
	}
	for i := 0; i < 2000; i++ {
		b.Add(k, 0, 1)
	}
	return b.Workload()
}

func rodiniaKmeans(seed uint64) *trace.Workload {
	b := NewBuilder("kmeans", "rodinia", seed)
	invert := &KernelDef{
		Name: "invert_mapping", Grid: trace.Dim3{X: 512}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.8, Locality: 0.5, Work: 2e8, Footprint: 64 << 20, RegPerThread: 10,
	}
	point := &KernelDef{
		Name: "kmeansPoint", Grid: trace.Dim3{X: 512}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.5, Locality: 0.7, Work: 8e8, Footprint: 64 << 20, RegPerThread: 26,
	}
	b.Add(invert, 0, 1)
	for i := 0; i < 50; i++ {
		b.Add(point, 0, 1)
	}
	return b.Workload()
}

func rodiniaLavaMD(seed uint64) *trace.Workload {
	b := NewBuilder("lavamd", "rodinia", seed)
	k := &KernelDef{
		Name: "kernel_gpu_cuda", Grid: trace.Dim3{X: 1000}, Block: trace.Dim3{X: 128},
		MemIntensity: 0.3, Locality: 0.8, Work: 6e9, Footprint: 24 << 20, RegPerThread: 56,
	}
	for i := 0; i < 5; i++ {
		b.Add(k, 0, 1)
	}
	return b.Workload()
}

func rodiniaLUD(seed uint64) *trace.Workload {
	b := NewBuilder("lud", "rodinia", seed)
	diag := &KernelDef{
		Name: "lud_diagonal", Grid: trace.Dim3{X: 1}, Block: trace.Dim3{X: 32},
		MemIntensity: 0.4, Locality: 0.9, Work: 4e6, Footprint: 64 << 10,
		InstrsScaleWithWork: true, RegPerThread: 36,
	}
	peri := &KernelDef{
		Name: "lud_perimeter", Grid: trace.Dim3{X: 64}, Block: trace.Dim3{X: 64},
		MemIntensity: 0.45, Locality: 0.8, Work: 8e7, Footprint: 8 << 20,
		InstrsScaleWithWork: true, RegPerThread: 32,
	}
	internal := &KernelDef{
		Name: "lud_internal", Grid: trace.Dim3{X: 4096}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.35, Locality: 0.85, Work: 2e9, Footprint: 32 << 20,
		InstrsScaleWithWork: true, RegPerThread: 28,
	}
	const iters = 64
	for i := 0; i < iters; i++ {
		rem := float64(iters-i) / iters
		b.Add(diag, 0, 1)
		b.Add(peri, 0, rem)
		b.Add(internal, 0, rem*rem)
	}
	return b.Workload()
}

func rodiniaNW(seed uint64) *trace.Workload {
	b := NewBuilder("nw", "rodinia", seed)
	k1 := &KernelDef{
		Name: "needle_cuda_1", Grid: trace.Dim3{X: 128}, Block: trace.Dim3{X: 32},
		MemIntensity: 0.6, Locality: 0.6, Work: 1.5e8, Footprint: 32 << 20,
		InstrsScaleWithWork: true, RegPerThread: 20,
	}
	k2 := &KernelDef{
		Name: "needle_cuda_2", Grid: trace.Dim3{X: 128}, Block: trace.Dim3{X: 32},
		MemIntensity: 0.6, Locality: 0.6, Work: 1.5e8, Footprint: 32 << 20,
		InstrsScaleWithWork: true, RegPerThread: 20,
	}
	// Anti-diagonal wavefront: work ramps up to the main diagonal and back
	// down, processed by two alternating kernels.
	const half = 128
	for i := 1; i <= half; i++ {
		b.Add(k1, 0, float64(i)/half)
	}
	for i := half - 1; i >= 1; i-- {
		b.Add(k2, 0, float64(i)/half)
	}
	return b.Workload()
}

func rodiniaPathfinder(seed uint64) *trace.Workload {
	b := NewBuilder("pf_float", "rodinia", seed)
	short := &KernelDef{
		Name: "dynproc_kernel", Grid: trace.Dim3{X: 463}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.5, Locality: 0.7, Work: 1e8, Footprint: 24 << 20,
		InstrsScaleWithWork: true, RegPerThread: 22,
	}
	// A handful of invocations run ~100x longer than the rest (paper §5.1:
	// "certain kernels are up to 100x longer than others").
	for i := 0; i < 100; i++ {
		mult := 1.0
		if i%20 == 19 {
			mult = 100
		}
		b.Add(short, 0, mult)
	}
	return b.Workload()
}

func rodiniaSRAD(seed uint64) *trace.Workload {
	b := NewBuilder("srad", "rodinia", seed)
	srad1 := &KernelDef{
		Name: "srad_cuda_1", Grid: trace.Dim3{X: 1024}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.75, Locality: 0.55, Work: 3e8, Footprint: 64 << 20, RegPerThread: 24,
	}
	srad2 := &KernelDef{
		Name: "srad_cuda_2", Grid: trace.Dim3{X: 1024}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.75, Locality: 0.55, Work: 3e8, Footprint: 64 << 20, RegPerThread: 26,
	}
	for i := 0; i < 1000; i++ {
		b.Add(srad1, 0, 1)
		b.Add(srad2, 0, 1)
	}
	return b.Workload()
}

// Package trace defines the kernel-invocation trace model shared by every
// subsystem: the workload generators emit traces, the hardware model and the
// cycle-level simulator consume them, the profilers annotate them with
// measured execution times, and the samplers select subsets of them.
//
// An Invocation carries two kinds of information:
//
//   - Static signatures visible to sampling methods: kernel name, launch
//     geometry, per-warp dynamic instruction count, the 12 instruction-level
//     metrics PKA profiles with NCU, and a seed from which a basic-block
//     vector can be generated for Photon.
//   - Latent behaviour, the hidden ground truth of how the invocation uses
//     the machine (usage context, memory intensity, footprint, locality,
//     op mix). Only the hardware model and the simulator may read it;
//     samplers must never touch it. This mirrors reality, where the
//     microarchitectural truth of a kernel is only observable by running it.
//
// Workloads and Invocations are read-only after generation (BBVs are
// regenerated deterministically on demand, never cached), so any number of
// goroutines may profile, sample, and simulate the same workload at once.
package trace

import "fmt"

// Dim3 is a CUDA-style launch dimension.
type Dim3 struct {
	X, Y, Z int
}

// Count returns the number of elements spanned by the dimension.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x <= 0 {
		x = 1
	}
	if y <= 0 {
		y = 1
	}
	if z <= 0 {
		z = 1
	}
	return x * y * z
}

func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// InstrMetrics are the 12 instruction-level metrics the PKA baseline
// collects with Nsight Compute (paper Table 1: "12 instr. level metrics").
type InstrMetrics struct {
	TotalInstrs  float64 // dynamic instructions per warp
	FP32Ops      float64
	FP16Ops      float64
	IntOps       float64
	GlobalLoads  float64
	GlobalStores float64
	SharedAccess float64
	BranchInstrs float64
	SyncInstrs   float64
	AtomicInstrs float64
	RegPerThread float64
	Occupancy    float64 // achieved occupancy in [0,1]
}

// Latent is the hidden ground-truth behaviour of an invocation. The fields
// drive both the hardware timing model and the instruction streams fed to
// the cycle-level simulator, so a sampling method that picks representative
// invocations by any honest signal will also represent these.
type Latent struct {
	// Context identifies the usage context (e.g. which layer of a network
	// invokes this kernel). Distinct contexts produce the distinct
	// execution-time peaks of paper Figure 1.
	Context int
	// MemIntensity in [0,1] is the fraction of memory instructions; high
	// values make the kernel memory-bound with heavy-tailed jitter.
	MemIntensity float64
	// FootprintBytes is the working-set size touched by the invocation.
	FootprintBytes int64
	// Locality in [0,1] is the temporal reuse of accesses (cache friendliness).
	Locality float64
	// RandomAccess in [0,1] is address randomness (1 = DLRM-style gathers).
	RandomAccess float64
	// ComputeWork is the base amount of arithmetic work (scaled ops).
	ComputeWork int64
	// FP16Frac in [0,1] is the share of FP ops executed in half precision.
	FP16Frac float64
	// BranchDivergence in [0,1] is the fraction of divergent branches.
	BranchDivergence float64
}

// Invocation is one kernel launch in a workload.
type Invocation struct {
	// Seq is the chronological index of the launch within its workload.
	Seq int
	// Name is the kernel symbol; large ML workloads repeat a small set of
	// names tens of thousands of times.
	Name string
	// Grid and Block are the launch dimensions.
	Grid, Block Dim3
	// InstrsPerWarp is the dynamic instruction count per warp, the feature
	// Sieve profiles with NVBit.
	InstrsPerWarp int64
	// Metrics are the 12 NCU metrics PKA uses.
	Metrics InstrMetrics
	// BBVSeed deterministically generates the invocation's basic-block
	// vector (see BBV) without storing hundreds of floats per invocation.
	BBVSeed uint64
	// Latent is the hidden behaviour. Samplers must not read it.
	Latent Latent
}

// Warps returns the number of warps launched, assuming a 32-thread warp.
func (inv *Invocation) Warps() int {
	threads := inv.Block.Count()
	warpsPerBlock := (threads + 31) / 32
	return warpsPerBlock * inv.Grid.Count()
}

// Workload is an ordered sequence of kernel invocations plus identifying
// metadata. Suite names follow the paper: "rodinia", "casio", "huggingface".
type Workload struct {
	Name  string
	Suite string
	Seed  uint64
	Invs  []Invocation
}

// Len returns the number of invocations.
func (w *Workload) Len() int { return len(w.Invs) }

// GroupByName returns, for each distinct kernel name, the invocation indices
// in chronological order. This is the first grouping step of both Sieve and
// STEM+ROOT ("kernel calls are grouped by names", paper §3).
func (w *Workload) GroupByName() map[string][]int {
	groups := make(map[string][]int)
	for i := range w.Invs {
		name := w.Invs[i].Name
		groups[name] = append(groups[name], i)
	}
	return groups
}

// KernelNames returns the distinct kernel names in first-appearance order.
func (w *Workload) KernelNames() []string {
	seen := make(map[string]bool)
	var names []string
	for i := range w.Invs {
		if n := w.Invs[i].Name; !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	return names
}

// Profile holds per-invocation measurements taken on one device, parallel to
// Workload.Invs. It is the output of the profiler and the only runtime
// information sampling methods may use.
type Profile struct {
	Device string
	// TimeUS[i] is the measured execution time of invocation i in
	// microseconds.
	TimeUS []float64
}

// TotalTime returns the summed execution time of the full workload in
// microseconds — the ground truth t* that sampled simulation estimates.
func (p *Profile) TotalTime() float64 {
	var sum, comp float64
	for _, t := range p.TimeUS {
		y := t - comp
		s := sum + y
		comp = (s - sum) - y
		sum = s
	}
	return sum
}

// Validate checks that the profile is parallel to the workload.
func (p *Profile) Validate(w *Workload) error {
	if len(p.TimeUS) != len(w.Invs) {
		return fmt.Errorf("trace: profile has %d times for %d invocations", len(p.TimeUS), len(w.Invs))
	}
	return nil
}

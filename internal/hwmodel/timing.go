package hwmodel

import (
	"math"

	"stemroot/internal/rng"
	"stemroot/internal/trace"
)

// Model evaluates execution times of a workload's invocations on a device.
// Construct it with New.
type Model struct {
	Device Device
	// Seed anchors the jitter streams; use the workload seed so ground
	// truth is reproducible.
	Seed uint64
	// nameHash is rng.HashString(Device.Name), a label of every jitter
	// stream, hashed once here instead of once per invocation.
	nameHash uint64
}

// New returns a timing model for the device, seeded by the workload seed.
func New(dev Device, seed uint64) *Model {
	return &Model{Device: dev, Seed: seed, nameHash: rng.HashString(dev.Name)}
}

// baseTime returns the noise-free execution time (µs) of an invocation:
// a smooth roofline max of compute and memory time plus launch overhead.
func (m *Model) baseTime(inv *trace.Invocation) float64 {
	d := m.Device
	lat := inv.Latent

	// Compute side. FP16 work runs FP16Mult times faster; achievable
	// throughput scales with how much parallelism the launch exposes.
	effOps := d.FP32OpsPerUS * (1 + lat.FP16Frac*(d.FP16Mult-1))
	util := float64(inv.Warps()) / float64(d.MaxWarps())
	if util > 1 {
		util = 1
	}
	if util < 0.02 {
		util = 0.02 // even a single block keeps a few pipelines busy
	}
	// Divergence wastes lanes.
	util *= 1 - 0.5*lat.BranchDivergence
	computeUS := float64(lat.ComputeWork) / (effOps * util)

	// Memory side. The fraction of the footprint that misses the LLC must
	// come from DRAM; random access degrades achievable bandwidth.
	capFactor := 1.0
	if lat.FootprintBytes > 0 {
		capFactor = math.Min(1, float64(d.L2Bytes)/float64(lat.FootprintBytes))
	}
	hit := lat.Locality * math.Sqrt(capFactor)
	bytesFromDRAM := float64(lat.FootprintBytes) * (1 - hit) * (1 + 0.5*lat.MemIntensity)
	effBW := d.MemBytesPerUS * (1 - 0.7*lat.RandomAccess)
	memoryUS := bytesFromDRAM / effBW

	// Smooth roofline: p-norm with p=4 approximates max while allowing
	// partial overlap of compute and memory.
	base := root4(pow4(computeUS) + pow4(memoryUS))
	return d.LaunchOverheadUS + base
}

// pow4 is math.Pow(v, 4), bit for bit: Pow squares the mantissa twice and
// scales by a power of two, which rounds as (v*v)*(v*v) does wherever
// neither square leaves the normal range. The conversion keeps the
// compiler from fusing the product into a caller's addition.
func pow4(v float64) float64 {
	if 1e-70 < v && v < 1e70 {
		sq := v * v
		return float64(sq * sq)
	}
	return math.Pow(v, 4)
}

// root4 is math.Pow(s, 0.25), bit for bit: for a finite s > 0 with an
// exponent that has no integer part, Pow is exactly Exp(y*Log(s)).
func root4(s float64) float64 {
	if s > 0 && s <= math.MaxFloat64 {
		return math.Exp(0.25 * math.Log(s))
	}
	return math.Pow(s, 0.25)
}

// jitterSigma returns the log-normal sigma of run-to-run noise for an
// invocation: compute-bound kernels are stable (narrow peaks in Figure 1),
// memory-bound and random-access kernels fluctuate widely.
func (m *Model) jitterSigma(inv *trace.Invocation) float64 {
	lat := inv.Latent
	sigma := 0.015 + 0.22*lat.MemIntensity*(0.4+0.6*lat.RandomAccess)
	return sigma * m.Device.JitterScale
}

// Time returns the measured execution time (µs) of the invocation: base
// time multiplied by deterministic log-normal jitter with unit mean.
func (m *Model) Time(inv *trace.Invocation) float64 {
	base := m.baseTime(inv)
	sigma := m.jitterSigma(inv)
	r := rng.Seeded(rng.Derive(m.Seed, uint64(inv.Seq), m.nameHash))
	// mu = -sigma^2/2 keeps E[multiplier] = 1 so jitter is unbiased.
	return base * r.LogNormal(-sigma*sigma/2, sigma)
}

// Profile measures every invocation of the workload, returning the profile
// a lightweight kernel profiler (Nsight Systems) would produce.
func (m *Model) Profile(w *trace.Workload) *trace.Profile {
	return &trace.Profile{Device: m.Device.Name, TimeUS: m.AppendTimes(make([]float64, 0, len(w.Invs)), w)}
}

// AppendTimes appends the profile's times, one per invocation of w, to dst
// and returns the extended slice: Profile for a caller that reuses the array.
func (m *Model) AppendTimes(dst []float64, w *trace.Workload) []float64 {
	for i := range w.Invs {
		dst = append(dst, m.Time(&w.Invs[i]))
	}
	return dst
}

// MicroNames lists the 13 microarchitectural metrics of the Figure 14
// validation, grouped in the paper's four categories: memory access
// patterns, cache behaviour, floating-point precision, and execution
// control.
var MicroNames = [13]string{
	"shared_loads", "shared_stores", "global_loads", "global_stores",
	"l1_accesses", "l1_hit_rate", "l2_accesses", "l2_read_hit_rate",
	"fp16_ops", "fp32_ops",
	"warp_execution_efficiency", "branch_efficiency", "achieved_occupancy",
}

// Micro returns the 13 microarchitectural metrics of one invocation as
// observed on this device. Count-like metrics scale with work; rate-like
// metrics derive from latent behaviour and cache capacity. Small
// deterministic noise models counter jitter.
func (m *Model) Micro(inv *trace.Invocation) [13]float64 {
	lat := inv.Latent
	d := m.Device
	r := rng.Seeded(rng.Derive(m.Seed, uint64(inv.Seq), m.nameHash, 0x71c))
	noise := func() float64 { return 1 + 0.01*(r.Float64()-0.5) }

	memInstrs := float64(inv.InstrsPerWarp) * lat.MemIntensity
	sharedFrac := 0.25 * (1 - lat.RandomAccess)
	globalAcc := memInstrs * (1 - sharedFrac)
	sharedAcc := memInstrs * sharedFrac

	capFactor := 1.0
	if lat.FootprintBytes > 0 {
		capFactor = math.Min(1, float64(d.L2Bytes)/float64(lat.FootprintBytes))
	}
	l1Hit := 0.3 + 0.6*lat.Locality*(1-lat.RandomAccess)
	l2Hit := lat.Locality * math.Sqrt(capFactor)

	fpOps := float64(lat.ComputeWork)
	var out [13]float64
	out[0] = sharedAcc * 0.6 * noise()
	out[1] = sharedAcc * 0.4 * noise()
	out[2] = globalAcc * 0.7 * noise()
	out[3] = globalAcc * 0.3 * noise()
	out[4] = globalAcc * noise()               // L1 accesses
	out[5] = clamp01(l1Hit * noise())          // L1 hit rate
	out[6] = globalAcc * (1 - l1Hit) * noise() // L2 accesses
	out[7] = clamp01(l2Hit * noise())          // L2 read hit rate
	out[8] = fpOps * lat.FP16Frac * noise()
	out[9] = fpOps * (1 - lat.FP16Frac) * noise()
	out[10] = clamp01((1 - 0.6*lat.BranchDivergence) * noise())
	out[11] = clamp01((1 - 0.4*lat.BranchDivergence) * noise())
	occ := float64(inv.Warps()) / float64(d.MaxWarps())
	out[12] = clamp01(occ * noise())
	return out
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// CountMetrics reports which of the 13 metrics are counts (extrapolated by
// weighted sums) as opposed to rates (extrapolated by weighted means).
var CountMetrics = [13]bool{
	true, true, true, true, // access counts
	true, false, true, false, // cache: accesses are counts, hit rates are rates
	true, true, // FP op counts
	false, false, false, // efficiencies and occupancy are rates
}

// Package workloads generates the synthetic benchmark suites that stand in
// for the paper's Rodinia, CASIO, and HuggingFace workloads.
//
// Each suite reproduces the statistical structure the paper documents rather
// than the applications themselves: Rodinia's irregular GPGPU kernels
// (shrinking Gaussian-elimination work, heartwall's tiny first call,
// pathfinder's 100x outliers), CASIO's ML workloads with tens of thousands
// of repeated kernel calls showing multi-peak and wide execution-time
// distributions (paper Figure 1), and HuggingFace-scale LLM serving traces
// with hundreds of thousands of invocations drawn from a small kernel set.
//
// The generators populate both the static signatures sampling baselines see
// (instruction counts, NCU metrics, BBV seeds) and the latent behaviour the
// hardware model and simulator consume. Crucially, for ML kernels the static
// signatures are (nearly) identical across usage contexts — matching the
// paper's observation that identical code with identical launch parameters
// behaves differently depending on input characteristics — while Rodinia's
// irregular kernels genuinely vary their instruction counts.
//
// Generation is deterministic in the seed, and the returned workloads are
// read-only thereafter — safe to share across worker goroutines.
package workloads

import (
	"stemroot/internal/rng"
	"stemroot/internal/trace"
)

// Context describes one usage context of a kernel: a multiplier set applied
// to the kernel's base latent behaviour. Distinct contexts produce the
// distinct execution-time peaks of paper Figure 1.
type Context struct {
	// WorkMult scales compute work (1 = unchanged).
	WorkMult float64
	// FootprintMult scales the memory footprint.
	FootprintMult float64
	// LocalityDelta shifts locality (clamped to [0,1]).
	LocalityDelta float64
}

// DefaultContext is the single-context case.
var DefaultContext = []Context{{WorkMult: 1, FootprintMult: 1}}

// KernelDef is the template from which invocations of one kernel are
// generated.
type KernelDef struct {
	Name  string
	Grid  trace.Dim3
	Block trace.Dim3

	// Base latent behaviour.
	MemIntensity float64
	Locality     float64
	RandomAccess float64
	FP16Frac     float64
	BranchDiv    float64
	Work         int64 // base compute work
	Footprint    int64 // base working-set bytes

	// Contexts; nil means DefaultContext.
	Contexts []Context

	// InstrsScaleWithWork marks irregular kernels (Rodinia style) whose
	// dynamic instruction count genuinely tracks the work multiplier, so
	// instruction-count-based signatures can see the variation. ML kernels
	// leave it false: same code, same instruction count, different runtime
	// behaviour.
	InstrsScaleWithWork bool

	// RegPerThread feeds the NCU metric vector.
	RegPerThread float64
}

// contexts returns the kernel's context list.
func (d *KernelDef) contexts() []Context {
	if len(d.Contexts) == 0 {
		return DefaultContext
	}
	return d.Contexts
}

// Builder incrementally assembles a workload.
type Builder struct {
	w *trace.Workload
	r *rng.Rand
	// workScale multiplies every invocation's compute work. Rodinia's
	// kernels are multi-millisecond affairs on real hardware (Table 2:
	// 6.46 s over ~1400 calls), an order of magnitude longer than ML
	// kernels — the suite-dependent scale reproduces that ratio, which
	// drives the per-launch vs per-instruction split of Table 5's
	// profiling overheads.
	workScale float64
}

// NewBuilder starts a workload for the given suite.
func NewBuilder(name, suite string, seed uint64) *Builder {
	scale := 1.0
	if suite == SuiteRodinia {
		scale = 64
	}
	return &Builder{
		w:         &trace.Workload{Name: name, Suite: suite, Seed: seed},
		r:         rng.New(rng.Derive(seed, rng.HashString(name))),
		workScale: scale,
	}
}

// Add appends one invocation of def in the given context (index into
// def.contexts()) with the given work multiplier trend (1 = base). It
// returns the invocation index.
func (b *Builder) Add(def *KernelDef, ctxIdx int, trendMult float64) int {
	ctxs := def.contexts()
	if ctxIdx < 0 || ctxIdx >= len(ctxs) {
		ctxIdx = 0
	}
	ctx := ctxs[ctxIdx]

	work := float64(def.Work) * ctx.WorkMult * trendMult * b.workScale
	if work < 1 {
		work = 1
	}
	footprint := float64(def.Footprint) * ctx.FootprintMult
	if footprint < 128 {
		footprint = 128
	}
	locality := clamp01(def.Locality + ctx.LocalityDelta)

	seq := len(b.w.Invs)
	warps := warpsOf(def.Grid, def.Block)

	// Dynamic instruction count: tracks work for irregular kernels, stays
	// flat (with ~0.5% measurement noise) for ML kernels.
	instrWork := float64(def.Work) * b.workScale
	if def.InstrsScaleWithWork {
		instrWork = work
	}
	instrs := instrWork / float64(warps) / 50
	if instrs < 16 {
		instrs = 16
	}
	instrs *= 1 + 0.005*(b.r.Float64()-0.5)

	inv := trace.Invocation{
		Seq:           seq,
		Name:          def.Name,
		Grid:          def.Grid,
		Block:         def.Block,
		InstrsPerWarp: int64(instrs),
		BBVSeed:       rng.Derive(b.w.Seed, uint64(seq), 0xbb),
		Latent: trace.Latent{
			Context:          ctxIdx,
			MemIntensity:     def.MemIntensity,
			FootprintBytes:   int64(footprint),
			Locality:         locality,
			RandomAccess:     def.RandomAccess,
			ComputeWork:      int64(work),
			FP16Frac:         def.FP16Frac,
			BranchDivergence: def.BranchDiv,
		},
	}
	inv.Metrics = b.metricsFor(def, &inv)
	b.w.Invs = append(b.w.Invs, inv)
	return seq
}

// metricsFor derives the 12 NCU metrics PKA profiles. They reflect the
// kernel's static mix and instruction count — not its usage context — with
// ~1% counter noise, mirroring what instruction-level profiling observes.
func (b *Builder) metricsFor(def *KernelDef, inv *trace.Invocation) trace.InstrMetrics {
	noise := func() float64 { return 1 + 0.01*(b.r.Float64()-0.5) }
	total := float64(inv.InstrsPerWarp)
	mem := def.MemIntensity * 0.6
	fp := (1 - mem) * 0.7
	occ := float64(inv.Warps()) / 2048
	if occ > 1 {
		occ = 1
	}
	return trace.InstrMetrics{
		TotalInstrs:  total * noise(),
		FP32Ops:      total * fp * (1 - def.FP16Frac) * noise(),
		FP16Ops:      total * fp * def.FP16Frac * noise(),
		IntOps:       total * (1 - mem - fp) * 0.6 * noise(),
		GlobalLoads:  total * mem * 0.7 * noise(),
		GlobalStores: total * mem * 0.3 * noise(),
		SharedAccess: total * mem * 0.25 * (1 - def.RandomAccess) * noise(),
		BranchInstrs: total * 0.05 * noise(),
		SyncInstrs:   total * 0.01 * noise(),
		AtomicInstrs: total * 0.002 * def.RandomAccess * noise(),
		RegPerThread: def.RegPerThread,
		Occupancy:    occ * noise(),
	}
}

// Rand exposes the builder's deterministic RNG for schedule decisions.
func (b *Builder) Rand() *rng.Rand { return b.r }

// Workload finalizes and returns the built workload.
func (b *Builder) Workload() *trace.Workload { return b.w }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func warpsOf(grid, block trace.Dim3) int {
	w := ((block.Count() + 31) / 32) * grid.Count()
	if w < 1 {
		w = 1
	}
	return w
}

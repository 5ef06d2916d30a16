// Package pipeline wires the paper's Figure 5 end-to-end flow together:
// a lightweight kernel profiler measures execution times on the profiling
// hardware, a sampling method turns the trace (and, for STEM, the profile)
// into sampling information, the cycle-level simulator runs only the sampled
// kernels, and the weighted-sum estimator extrapolates full-workload cycles.
//
// # Concurrency
//
// The simulation passes (FullSimOpt, SampledSimOpt) run kernel invocations
// in parallel using deterministic fixed-length replay segments: the
// invocation sequence is cut into segments of
// gpu.DefaultSegmentLen, segments are executed by gpu.RunSegmentedEngine's
// worker pool — a free worker claims the lowest unclaimed segment and runs
// it on its own long-lived Simulator, which gpu.Simulator.Reset cold-resets
// between segments, bit-identical to a fresh gpu.New and allocation-free in
// steady state — and each segment starts from cold simulator state and
// writes its own window of the results. Because segmentation depends only
// on the input — never on the worker count or goroutine scheduling —
// results are bit-identical for every Options.Workers value, including the
// serial workers == 1 path; the determinism regression tests pin this.
// SampledSimWarm is inherently sequential (it reconstructs L2 state by
// replaying predecessors) and stays serial. DESIGN.md §6 is the
// authoritative statement of the concurrency architecture.
package pipeline

import (
	"errors"
	"sort"
	"sync"

	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/parallel"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
)

// Options control the execution of the pipeline's simulation passes.
// The zero value uses one worker per CPU. Every pass replays in segments of
// gpu.DefaultSegmentLen invocations: L2 state persists within a segment and
// is cold at segment starts, so the segmentation — and therefore the
// simulated cycle counts — never depends on Workers.
type Options struct {
	// Workers is the number of simulation workers: 0 selects one per CPU,
	// 1 runs the simulation passes serially on the calling goroutine
	// (identical output), and values above the CPU count are clamped to it
	// (parallel.Workers — oversubscribing a CPU-bound pool only adds
	// interleave overhead, and by the determinism contract cannot change
	// output). It does not reach the planner: RunOpt's method.Plan fans out
	// by the method's own core.Params.Workers, and only for profiles of at
	// least core's row grain (1024 rows) — see core.BuildClusters.
	Workers int
	// Cache is an optional content-addressed segment-result cache (see
	// internal/simcache) consulted by the simulation passes: segments
	// already simulated — by an earlier pass in this process or, with a
	// disk-backed cache, by an earlier process — are looked up instead of
	// re-simulated. Because the cache key covers everything the engine
	// depends on, results with and without a cache are bit-identical.
	// Sharing one cache across FullSimOpt/SampledSimOpt/RunOpt calls is the
	// intended use. nil disables caching.
	Cache gpu.SegmentCache
	// Engine selects the kernel execution mode: "" or "exact" runs
	// gpu.RunKernel, the engine every table and figure comes from; "par"
	// runs gpu.RunKernelPar, the relaxed-sync intra-kernel engine at
	// gpu.DefaultEpoch, which only the benchmark harness measures. Par
	// results are deterministic for every Workers and KernelWorkers value,
	// and the segment cache keys the mode (gpu.KeyForSegmentEngineAppend),
	// so exact and par results never share cache entries.
	Engine string
	// KernelWorkers is the intra-kernel worker count for the par engine;
	// <= 0 selects one per CPU. Ignored in exact mode.
	KernelWorkers int
}

// engine maps the Options fields to the gpu.Engine value handed to
// gpu.RunSegmentedEngine. Validation happens there (unknown modes error).
func (o Options) engine() gpu.Engine {
	return gpu.Engine{Mode: o.Engine, Workers: o.KernelWorkers}
}

// specSource generates one simulation pass's specs on demand: position i is
// invocation indices[i], or i itself when indices is nil. Each worker of
// gpu.RunSegmentedEngine builds only its own segment's specs, so the working
// set is one segment per worker, never the full spec list; FromInvocation is
// a pure function of the invocation and limits, so concurrent calls are safe
// and results bit-identical for every worker count.
type specSource struct {
	w       *trace.Workload
	lim     kernelgen.Limits
	indices []int
	at      func(i int) kernelgen.Spec // specAt, bound once: a closure per pass would be a heap object
	// window is the runner's results, reused from pass to pass: simulate
	// only reads their cycles, so it never lets the window escape.
	window []gpu.KernelResult
	// run is RunOpt's scratch, reused from call to call.
	run runScratch
}

// runScratch is what RunOpt builds and drops within one call: the profile,
// the STEM plan, its sampled indices and their cycles, each rebuilt over its
// previous array. Nothing here is reachable from the Result RunOpt returns.
type runScratch struct {
	prof    trace.Profile
	plan    sampling.Plan
	sampled []int
	cycles  []float64
}

func (s *specSource) specAt(i int) kernelgen.Spec {
	if s.indices != nil {
		i = s.indices[i]
	}
	return kernelgen.FromInvocation(&s.w.Invs[i], s.lim)
}

// idleSources keeps up to maxIdleSources sources between passes: a bounded
// LIFO like gpu's idle lists, for the reason given there.
var idleSources struct {
	sync.Mutex
	list []*specSource
}

// maxIdleWindow bounds the window an idle source keeps, in results (32 B
// each, 128 KiB at most), and its run scratch, in profile rows: a long
// workload's results and plan are not pinned on the idle list.
const maxIdleSources, maxIdleWindow = 16, 4096

// takeSource returns the most recently returned idle source, or a new one.
func takeSource() *specSource {
	var src *specSource
	idleSources.Lock()
	idleSources.list, src = parallel.PopIdle(idleSources.list)
	idleSources.Unlock()
	if src == nil {
		src = new(specSource)
		src.at = src.specAt
	}
	return src
}

// putSource sends src to the idle list, less a window or a run scratch that
// grew past maxIdleWindow.
func putSource(src *specSource) {
	if cap(src.window) > maxIdleWindow {
		src.window = nil
	}
	if cap(src.run.prof.TimeUS) > maxIdleWindow { // the largest: one per row
		src.run = runScratch{}
	}
	idleSources.Lock()
	idleSources.list = parallel.PushIdle(idleSources.list, src, maxIdleSources)
	idleSources.Unlock()
}

// simulate runs one pass over n positions (see specSource) and returns the
// cycles of each in dst, grown only when short.
func simulate(dst []float64, w *trace.Workload, cfg gpu.Config, lim kernelgen.Limits, indices []int, n int, opt Options) ([]float64, error) {
	src := takeSource()
	src.w, src.lim, src.indices = w, lim, indices
	results, err := gpu.RunSegmentedEngine(src.window, cfg, n, src.at, gpu.DefaultSegmentLen, opt.Workers, opt.Cache, opt.engine())
	var cycles []float64
	if err == nil {
		if cycles = dst[:0]; cap(cycles) < len(results) {
			cycles = make([]float64, 0, len(results))
		}
		for _, r := range results {
			cycles = append(cycles, r.Cycles)
		}
		src.window = results
	}
	src.w, src.indices = nil, nil // an idle source refers to nothing
	putSource(src)
	return cycles, err
}

// FullSimOpt simulates every invocation of the workload, returning
// per-invocation cycle counts. This is the ground truth sampled simulation
// is compared against — and the cost it avoids. Results are bit-identical
// for every opt.Workers value; Options{} runs parallel across all CPUs.
func FullSimOpt(w *trace.Workload, cfg gpu.Config, lim kernelgen.Limits, opt Options) ([]float64, error) {
	return simulate(nil, w, cfg, lim, nil, w.Len(), opt)
}

// SampledSimOpt simulates only the given invocation indices (in the order
// given, as a sampled trace replay would), returning the cycles of
// indices[i] at position i in dst's array (a new one when dst is short, or
// nil). L2 state persists across the sampled kernels within each replay
// segment. Results are bit-identical for every opt.Workers value.
func SampledSimOpt(dst []float64, w *trace.Workload, cfg gpu.Config, lim kernelgen.Limits, indices []int, opt Options) ([]float64, error) {
	for _, ix := range indices {
		if ix < 0 || ix >= w.Len() {
			return nil, errors.New("pipeline: sample index out of range")
		}
	}
	return simulate(dst, w, cfg, lim, indices, len(indices), opt)
}

// Result is one end-to-end sampled-simulation evaluation on the simulator.
type Result struct {
	Outcome sampling.Outcome
	// FullCycles is the ground-truth total; SampledCycles the cost of the
	// sampled simulation; EstimateCycles the extrapolated total.
	FullCycles, SampledCycles, EstimateCycles float64
}

// RunOpt profiles the workload on the profiling device, builds the method's
// plan, runs the sampled simulation under opt, and scores it against the
// supplied ground-truth per-invocation cycles (computed once by FullSimOpt
// so several methods can share it). The Result is a value and the rest an idle
// source's run scratch: a STEM call allocates nothing (a baseline its plan).
func RunOpt(w *trace.Workload, profDev hwmodel.Device, method sampling.Method,
	cfg gpu.Config, lim kernelgen.Limits, fullCycles []float64, opt Options) (Result, error) {

	if len(fullCycles) != w.Len() {
		return Result{}, errors.New("pipeline: ground-truth cycles length mismatch")
	}
	src := takeSource()
	res, err := runOpt(&src.run, w, profDev, method, cfg, lim, fullCycles, opt)
	clear(src.run.plan.Clusters) // an idle source refers to nothing
	putSource(src)
	return res, err
}

// runOpt is RunOpt over the scratch sc.
func runOpt(sc *runScratch, w *trace.Workload, profDev hwmodel.Device, method sampling.Method,
	cfg gpu.Config, lim kernelgen.Limits, fullCycles []float64, opt Options) (Result, error) {

	sc.prof = trace.Profile{Device: profDev.Name, TimeUS: hwmodel.New(profDev, w.Seed).AppendTimes(sc.prof.TimeUS[:0], w)}
	plan, err := &sc.plan, error(nil)
	if stem, ok := method.(*sampling.STEMRoot); ok {
		err = stem.PlanInto(plan, w, &sc.prof)
	} else {
		plan, err = method.Plan(w, &sc.prof)
	}
	if err != nil {
		return Result{}, err
	}

	sc.sampled = plan.AppendSampledIndices(sc.sampled[:0])
	if sc.cycles, err = SampledSimOpt(sc.cycles, w, cfg, lim, sc.sampled, opt); err != nil {
		return Result{}, err
	}

	// sc.sampled is ascending and distinct: a sample's cycles are found by search.
	est := plan.Estimate(func(s int) float64 { return sc.cycles[sort.SearchInts(sc.sampled, s)] })
	var truth, cost float64
	for _, c := range fullCycles {
		truth += c
	}
	for _, c := range sc.cycles {
		cost += c
	}

	out := sampling.Outcome{Method: plan.Method, Samples: len(sc.sampled)}
	out.ErrorPct, out.Speedup = sampling.Score(est, truth, cost)
	return Result{Outcome: out, FullCycles: truth, SampledCycles: cost, EstimateCycles: est}, nil
}

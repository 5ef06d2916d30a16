package main

// layers.go is the benchmark's only door into the repository: every call
// into a stemroot package is made here, and only through the top rung of
// each package's API ladder (pipeline.FullSimOpt/RunOpt,
// gpu.KeyForSegmentEngineAppend, stemroot.Sample, stemroot.NewStreamPlanner).
// When ROADMAP's ladder collapse renames or removes a rung, this is the one
// file the benchmark has to follow.
//
// Two kinds of function live here. The end-to-end ones (sweepCell,
// fullSimTotal, planBatch, streamServe) call the pipeline the way the CLIs
// do and take no tracer. The replay ones (replayCell, replayPlanBatch,
// replayStream, and the probe* micro-measurements) perform the same work
// layer by layer through each package's public functions with a span around
// every call, so a layer's time can be read off the trace; their results
// are checked bit for bit against the end-to-end ones.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"time"

	"stemroot"
	"stemroot/internal/cachenet"
	"stemroot/internal/core"
	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/metrics"
	"stemroot/internal/parallel"
	"stemroot/internal/pipeline"
	"stemroot/internal/sampling"
	"stemroot/internal/servetrace"
	"stemroot/internal/simcache"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// workerCount is N: the worker count of every "jn" rung.
func workerCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// The repository types the workloads hold but never look inside.
type (
	simCache     = simcache.Cache
	cacheStats   = simcache.Stats
	netClient    = cachenet.Client
	barrierStats = metrics.BarrierStats
	batchPlan    = stemroot.Plan
)

func profilingDevice() hwmodel.Device {
	dev, err := hwmodel.ByName("rtx2080")
	if err != nil {
		panic(err) // a predefined device; only a bug can remove it
	}
	return dev
}

// ---------------------------------------------------------------- inputs

// simCell is one (GPU configuration, workload) point of a sweep.
type simCell struct {
	cfg gpu.Config
	w   *trace.Workload
}

// dseCells generates a §5.4 design-space sweep: the named reduced Rodinia
// and HuggingFace workloads at maxCalls invocations each, drawn `sets`
// times from seeds derived from seed, crossed with the named GPU variants.
func dseCells(seed uint64, maxCalls, sets int, variants, names []string) ([]simCell, error) {
	var ws []*trace.Workload
	for j := 0; j < sets; j++ {
		sub := seed*uint64(sets) + uint64(j)
		all := append(workloads.DSERodinia(sub, maxCalls), workloads.DSEHuggingFace(sub, maxCalls)...)
		found := 0
		for _, w := range all {
			for _, name := range names {
				if w.Name == name {
					ws = append(ws, w)
					found++
				}
			}
		}
		if found != len(names) {
			return nil, fmt.Errorf("benchmark: found %d of the workloads %v", found, names)
		}
	}
	var cells []simCell
	for _, v := range variants {
		cfg, err := gpu.Variant(v)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			cells = append(cells, simCell{cfg: cfg, w: w})
		}
	}
	return cells, nil
}

// staticInstructions is the warp-instruction count a full simulation of
// the cells executes, computed from the kernel specs alone. The traced
// replay checks it against the simulator's own KernelResult.Instructions.
func staticInstructions(cells []simCell) int64 {
	lim := kernelgen.DSELimits()
	var n int64
	for _, c := range cells {
		for i := range c.w.Invs {
			s := kernelgen.FromInvocation(&c.w.Invs[i], lim)
			n += int64(s.TotalWarps()) * int64(s.InstrsPerWarp)
		}
	}
	return n
}

// profileCSV is one workload's kernel-level profile as `stemroot -profile`
// reads it.
type profileCSV struct {
	name string
	data []byte
	rows int
}

// hfProfiles generates the HuggingFace suite at the given scale, profiles
// each workload on the profiling device and renders the profile CSVs.
func hfProfiles(seed uint64, scale float64) ([]profileCSV, error) {
	ws, err := workloads.Suite(workloads.SuiteHuggingFace, seed, scale)
	if err != nil {
		return nil, err
	}
	out := make([]profileCSV, 0, len(ws))
	for _, w := range ws {
		prof := hwmodel.New(profilingDevice(), w.Seed).Profile(w)
		var buf bytes.Buffer
		if err := prof.WriteCSV(w, &buf); err != nil {
			return nil, err
		}
		out = append(out, profileCSV{name: w.Name, data: buf.Bytes(), rows: w.Len()})
	}
	return out, nil
}

// writeServeTrace streams a serving trace of the given length to path.
func writeServeTrace(path string, seed uint64, rows int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return servetrace.New(servetrace.Config{Seed: seed, Invocations: rows}).WriteCSV(f)
}

// ------------------------------------------------------- cache plumbing

func newCache(dir string, remote *netClient) (*simCache, error) {
	opts := simcache.Options{Dir: dir}
	if remote != nil {
		opts.Remote = remote
	}
	return simcache.New(opts)
}

// loopback is an in-process cache server bound to 127.0.0.1 on a free
// port.
type loopback struct {
	srv  *cachenet.Server
	addr string
	done chan error
}

func startLoopback() (*loopback, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: cachenet.NewServer(cachenet.ServerOptions{}), addr: lis.Addr().String(), done: make(chan error, 1)}
	go func() { lb.done <- lb.srv.Serve(lis) }()
	return lb, nil
}

// close stops the server and waits for its accept loop to return.
func (lb *loopback) close() {
	lb.srv.Close()
	<-lb.done
}

// client connects to the server. The put window holds a whole priming
// sweep, so no write-back is dropped while the server keeps up.
func (lb *loopback) client() *netClient {
	return cachenet.New(cachenet.ClientOptions{Addr: lb.addr, PutWindow: 1 << 16})
}

// ---------------------------------------------------- simulation, whole

// simOpts are the pipeline options a sample varies.
type simOpts struct {
	workers       int
	cache         *simCache // nil: no cache
	par           bool      // relaxed-sync engine instead of exact
	kernelWorkers int
}

func (o simOpts) pipeline() pipeline.Options {
	po := pipeline.Options{Workers: o.workers}
	if o.cache != nil {
		po.Cache = o.cache
	}
	if o.par {
		po.Engine = gpu.EngineModePar
		po.KernelWorkers = o.kernelWorkers
	}
	return po
}

// cellResult is what sampled simulation reports for one cell: the
// ground-truth cycles, the cycles the sampled run cost, and the estimate.
type cellResult struct {
	Full, Sampled, Estimate float64
	Samples                 int
}

func (r cellResult) errPct() float64 {
	if r.Full == 0 {
		return 0
	}
	return math.Abs(r.Estimate-r.Full) / r.Full * 100
}

// fullSimTotal simulates every invocation of the cell and returns the
// total cycles.
func fullSimTotal(c simCell, o simOpts) (float64, error) {
	cycles, err := pipeline.FullSimOpt(c.w, c.cfg, kernelgen.DSELimits(), o.pipeline())
	if err != nil {
		return 0, err
	}
	var total float64
	for _, cy := range cycles {
		total += cy
	}
	return total, nil
}

// sweepCell is one cell of the paper's sampled-simulation evaluation:
// ground truth by full simulation, then profile → STEM+ROOT plan →
// sampled simulation → extrapolation.
func sweepCell(c simCell, seed uint64, o simOpts) (cellResult, error) {
	lim, po := kernelgen.DSELimits(), o.pipeline()
	full, err := pipeline.FullSimOpt(c.w, c.cfg, lim, po)
	if err != nil {
		return cellResult{}, err
	}
	res, err := pipeline.RunOpt(c.w, profilingDevice(), sampling.NewSTEMRoot(seed), c.cfg, lim, full, po)
	if err != nil {
		return cellResult{}, err
	}
	return cellResult{Full: res.FullCycles, Sampled: res.SampledCycles, Estimate: res.EstimateCycles, Samples: res.Outcome.Samples}, nil
}

// ------------------------------------------------ simulation, by layer

// simStats accumulates what the replayed full-simulation passes observed.
type simStats struct {
	specs, segments, kernels int
	instructions             int64 // of the full-simulation passes
	runInstructions          int64 // of every kernel actually executed
	cycles                   float64
	l1Hit, l2Hit             float64 // sums of per-kernel hit rates
	samples                  int
	entries                  []cacheEntry // recorded segment results, when wanted
	keepEntries              bool
}

type cacheEntry struct {
	key     gpu.SegmentKey
	results []gpu.KernelResult
}

// segRunner executes spec sequences the way gpu.RunSegmentedEngine does at
// one worker — fixed-length segments, content-addressed lookup, a cold
// Reset simulator per computed segment — but one public call at a time.
type segRunner struct {
	tr      *tracer
	cfg     gpu.Config
	eng     gpu.Engine
	barrier *metrics.BarrierCollector
	cache   gpu.SegmentCache // nil: simulate every segment
	sim     *gpu.Simulator
	keyBuf  []byte
	st      *simStats
}

func (r *segRunner) run(specs []kernelgen.Spec) ([]gpu.KernelResult, error) {
	const segLen = gpu.DefaultSegmentLen
	n := len(specs)
	nseg := (n + segLen - 1) / segLen
	r.st.segments += nseg
	seg := func(sg int) []kernelgen.Spec {
		hi := (sg + 1) * segLen
		if hi > n {
			hi = n
		}
		return specs[sg*segLen : hi]
	}

	var keys []gpu.SegmentKey
	if r.cache != nil {
		keys = make([]gpu.SegmentKey, nseg)
		id := r.tr.begin("gpu.key_hash")
		for sg := range keys {
			keys[sg], r.keyBuf = gpu.KeyForSegmentEngineAppend(r.keyBuf, r.cfg, seg(sg), r.eng)
		}
		r.tr.end(id)
		if bp, ok := r.cache.(gpu.BatchPrefetcher); ok && bp.WantPrefetch() {
			id := r.tr.begin("simcache.prefetch")
			bp.Prefetch(keys)
			r.tr.end(id)
		}
	}

	fresh := true // RunSegmentedEngine builds its simulator per call
	out := make([]gpu.KernelResult, 0, n)
	for sg := 0; sg < nseg; sg++ {
		specs := seg(sg)
		compute := func() ([]gpu.KernelResult, error) {
			id := r.tr.begin("gpu.run_kernel")
			defer r.tr.end(id)
			if fresh || r.sim == nil {
				sim, err := gpu.New(r.cfg)
				if err != nil {
					return nil, err
				}
				r.sim, fresh = sim, false
			} else {
				r.sim.Reset()
			}
			res := make([]gpu.KernelResult, len(specs))
			for i := range specs {
				res[i] = r.runKernel(&specs[i])
				r.st.runInstructions += res[i].Instructions
			}
			return res, nil
		}
		var (
			res []gpu.KernelResult
			err error
		)
		if r.cache == nil {
			res, err = compute()
		} else {
			id := r.tr.begin("simcache.get_or_compute")
			res, err = r.cache.GetOrCompute(keys[sg], compute)
			r.tr.end(id)
			if r.st.keepEntries {
				r.st.entries = append(r.st.entries, cacheEntry{keys[sg], res})
			}
		}
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return out, nil
}

func (r *segRunner) runKernel(spec *kernelgen.Spec) gpu.KernelResult {
	if r.eng.Mode != gpu.EngineModePar {
		return r.sim.RunKernel(spec)
	}
	r.sim.SetBarrierCollector(r.barrier)
	return r.sim.RunKernelPar(spec, r.eng.Workers, gpu.DefaultEpoch)
}

func buildSpecs(tr *tracer, w *trace.Workload, indices []int) []kernelgen.Spec {
	lim := kernelgen.DSELimits()
	id := tr.begin("kernelgen.from_invocation")
	specs := make([]kernelgen.Spec, len(indices))
	for i, ix := range indices {
		specs[i] = kernelgen.FromInvocation(&w.Invs[ix], lim)
	}
	tr.end(id)
	return specs
}

// replayCell is sweepCell (or, with stem false, fullSimTotal) decomposed:
// spec generation, key hashing, cache lookup, kernel execution, profiling,
// planning and extrapolation each under their own span. The arithmetic
// mirrors pipeline.RunOpt term for term so results compare bit for bit.
func replayCell(tr *tracer, c simCell, seed uint64, cache *simCache, eng gpu.Engine, barrier *metrics.BarrierCollector, stem bool, st *simStats) (cellResult, error) {
	r := segRunner{tr: tr, cfg: c.cfg, eng: eng, barrier: barrier, st: st}
	if cache != nil {
		r.cache = cache
	}
	n := c.w.Len()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}

	idFull := tr.begin("pipeline.fullsim")
	specs := buildSpecs(tr, c.w, all)
	results, err := r.run(specs)
	tr.end(idFull)
	if err != nil {
		return cellResult{}, err
	}
	st.specs += n
	st.kernels += n
	var out cellResult
	for _, kr := range results {
		out.Full += kr.Cycles
		st.instructions += kr.Instructions
		st.l1Hit += kr.L1HitRate
		st.l2Hit += kr.L2HitRate
	}
	st.cycles += out.Full
	if !stem {
		return out, nil
	}

	idRun := tr.begin("pipeline.run")
	defer tr.end(idRun)
	id := tr.begin("hwmodel.profile")
	prof := hwmodel.New(profilingDevice(), c.w.Seed).Profile(c.w)
	tr.end(id)
	id = tr.begin("sampling.stem_plan")
	plan, err := sampling.NewSTEMRoot(seed).Plan(c.w, prof)
	tr.end(id)
	if err != nil {
		return cellResult{}, err
	}
	id = tr.begin("sampling.sampled_indices")
	indices := plan.SampledIndices()
	tr.end(id)
	sres, err := r.run(buildSpecs(tr, c.w, indices))
	if err != nil {
		return cellResult{}, err
	}
	st.specs += len(indices)
	sampled := make(map[int]float64, len(indices))
	for i, ix := range indices {
		sampled[ix] = sres[i].Cycles
	}
	id = tr.begin("sampling.estimate")
	out.Estimate = plan.Estimate(func(i int) float64 { return sampled[i] })
	tr.end(id)
	for _, ix := range indices {
		out.Sampled += sampled[ix]
	}
	out.Samples = len(indices)
	st.samples += len(indices)
	return out, nil
}

// replaySweep is replayCell over every cell on the exact engine; a nil
// cache simulates every segment.
func replaySweep(tr *tracer, cells []simCell, seed uint64, cache *simCache, stem bool, st *simStats) ([]cellResult, error) {
	out := make([]cellResult, len(cells))
	for i, c := range cells {
		r, err := replayCell(tr, c, seed, cache, gpu.Engine{}, nil, stem, st)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", c.cfg.Name, c.w.Name, err)
		}
		out[i] = r
	}
	return out, nil
}

// replayPar is the full-simulation replay on the relaxed-sync engine at
// one kernel worker, with the epoch-barrier accounting switched on.
func replayPar(tr *tracer, cells []simCell, st *simStats) (barrierStats, error) {
	var bc metrics.BarrierCollector
	eng := gpu.Engine{Mode: gpu.EngineModePar, Workers: 1}
	for _, c := range cells {
		if _, err := replayCell(tr, c, 0, nil, eng, &bc, false, st); err != nil {
			return barrierStats{}, fmt.Errorf("%s: %w", c.w.Name, err)
		}
	}
	return bc.Snapshot(), nil
}

// probeStreams drains the instruction streams of the cells' kernels
// standalone (no simulator) and returns the nanoseconds per generated
// instruction: the floor kernelgen puts under the event loop.
func probeStreams(tr *tracer, cells []simCell, maxInstrs int64) float64 {
	lim := kernelgen.DSELimits()
	var st kernelgen.Stream
	var instrs int64
	id := tr.begin("kernelgen.stream")
	t0 := time.Now()
drain:
	for _, c := range cells {
		for i := range c.w.Invs {
			spec := kernelgen.FromInvocation(&c.w.Invs[i], lim)
			for w := 0; w < spec.TotalWarps(); w++ {
				spec.InitStream(&st, w)
				for {
					if _, ok := st.Next(); !ok {
						break
					}
					instrs++
				}
				if instrs >= maxInstrs {
					break drain
				}
			}
		}
	}
	el := time.Since(t0)
	tr.end(id)
	if instrs == 0 {
		return 0
	}
	return float64(el.Nanoseconds()) / float64(instrs)
}

// probeDispatch returns the scheduler's cost per item: ForEachStealing
// over no-op items at the given worker count.
func probeDispatch(tr *tracer, workers int) float64 {
	const items = 1 << 20
	id := tr.begin("parallel.for_each_stealing")
	t0 := time.Now()
	parallel.ForEachStealing(items, workers, func(worker, i int) {})
	el := time.Since(t0)
	tr.end(id)
	return float64(el.Nanoseconds()) / items
}

// cacheProbe is the per-entry cost of each cache tier operation, in
// microseconds, measured over recorded segment results.
type cacheProbe struct {
	memHitUS, diskHitUS, diskPutUS, encodeUS float64
	netGetUS, netBatchUS, netPutUS           float64
	netFails                                 int
}

// probeCaches replays recorded entries against an empty disk directory and
// the loopback server, one public call per entry.
func probeCaches(tr *tracer, entries []cacheEntry, dir string) (cacheProbe, error) {
	var p cacheProbe
	// A replay looks a segment up once per pass that needs it; the probe
	// wants each distinct entry once.
	seen := make(map[gpu.SegmentKey]bool, len(entries))
	distinct := entries[:0:0]
	for _, e := range entries {
		if !seen[e.key] {
			seen[e.key] = true
			distinct = append(distinct, e)
		}
	}
	entries = distinct
	n := float64(len(entries))
	if n == 0 {
		return p, errors.New("benchmark: no cache entries recorded")
	}
	perEntryUS := func(name string, fn func()) float64 {
		id := tr.begin(name)
		t0 := time.Now()
		fn()
		el := time.Since(t0)
		tr.end(id)
		return float64(el.Nanoseconds()) / 1e3 / n
	}
	lookup := func(c *simCache) func() {
		return func() {
			for _, e := range entries {
				e := e
				c.GetOrCompute(e.key, func() ([]gpu.KernelResult, error) { return e.results, nil })
			}
		}
	}

	writer, err := newCache(dir, nil)
	if err != nil {
		return p, err
	}
	p.diskPutUS = perEntryUS("simcache.disk_put", lookup(writer))
	reader, err := newCache(dir, nil)
	if err != nil {
		return p, err
	}
	p.diskHitUS = perEntryUS("simcache.disk_hit", lookup(reader))
	p.memHitUS = perEntryUS("simcache.mem_hit", lookup(reader))
	if st := reader.Stats(); st.Misses != 0 || st.DiskHits != uint64(len(entries)) || st.MemHits != uint64(len(entries)) {
		return p, fmt.Errorf("benchmark: cache probe saw %s", st)
	}
	p.encodeUS = perEntryUS("simcache.encode", func() {
		for _, e := range entries {
			if _, ok := simcache.DecodeEntry(e.key, simcache.EncodeEntry(e.key, e.results)); !ok {
				p.netFails++
			}
		}
	})

	// The probe server is its own, so its Put timings are first writes.
	srv, err := startLoopback()
	if err != nil {
		return p, err
	}
	defer srv.close()
	cl := srv.client()
	p.netPutUS = perEntryUS("cachenet.put", func() {
		for _, e := range entries {
			cl.Put(e.key, e.results, 1)
		}
		cl.Close() // drains the pipelined window
	})
	cl = srv.client()
	defer cl.Close()
	p.netGetUS = perEntryUS("cachenet.get", func() {
		for _, e := range entries {
			if _, ok := cl.Get(e.key); !ok {
				p.netFails++
			}
		}
	})
	keys := make([]gpu.SegmentKey, len(entries))
	for i, e := range entries {
		keys[i] = e.key
	}
	p.netBatchUS = perEntryUS("cachenet.batch_get", func() {
		for _, res := range cl.BatchGet(keys) {
			if res == nil {
				p.netFails++
			}
		}
	})
	st := cl.Stats()
	p.netFails += int(st.Errors + st.PutDrops)
	return p, nil
}

// ------------------------------------------------------ planner, whole

// planOutcome is what a planning sample produced, reduced to the numbers
// a user reads off the CLI summary.
type planOutcome struct {
	Estimate, Truth, SampledTime float64
	PredictedError               float64
	Clusters, Samples            int
	JSONBytes                    int
}

func (o planOutcome) errPct() float64 { return math.Abs(o.Estimate-o.Truth) / o.Truth * 100 }

func planOptions(seed uint64, workers int) stemroot.Options {
	return stemroot.Options{Seed: seed, Parallelism: workers}
}

// planBatch is `stemroot -profile X -o plan.json` on one profile: decode
// the CSV, build the STEM+ROOT plan, serialize it. A non-nil keep receives
// the plan and its JSON for the round-trip check.
func planBatch(p profileCSV, seed uint64, workers int, keep func(*batchPlan, []byte)) (planOutcome, error) {
	names, times, err := trace.ReadProfileCSV(bytes.NewReader(p.data))
	if err != nil {
		return planOutcome{}, err
	}
	plan, err := stemroot.Sample(names, times, planOptions(seed, workers))
	if err != nil {
		return planOutcome{}, err
	}
	var js bytes.Buffer
	if err := plan.WriteJSON(&js); err != nil {
		return planOutcome{}, err
	}
	if keep != nil {
		keep(plan, js.Bytes())
	}
	return summarizePlan(plan, times, js.Len()), nil
}

func summarizePlan(plan *batchPlan, times []float64, jsonBytes int) planOutcome {
	out := planOutcome{
		Estimate:       plan.Estimate(func(i int) float64 { return times[i] }),
		PredictedError: plan.PredictedError,
		Clusters:       len(plan.Clusters),
		Samples:        plan.TotalSamples(),
		JSONBytes:      jsonBytes,
	}
	for _, t := range times {
		out.Truth += t
	}
	for _, ix := range plan.SampledIndices() {
		out.SampledTime += times[ix]
	}
	return out
}

// planRoundTrips reports whether the serialized plan reads back equal.
func planRoundTrips(plan *batchPlan, js []byte) bool {
	back, err := stemroot.ReadPlanJSON(bytes.NewReader(js))
	return err == nil && reflect.DeepEqual(back, plan)
}

// streamOutcome is the final summary of `stemroot -stream`.
type streamOutcome struct {
	Final     stemroot.Snapshot
	Snapshots int
	Distinct  int
	PredErr   float64
}

// streamServe is `stemroot -stream -snapshot every` over the trace file:
// zero-alloc decode straight into the single-pass planner, a rolling
// snapshot every `every` rows, a forced final plan.
func streamServe(path string, seed uint64, workers, every int) (streamOutcome, error) {
	f, err := os.Open(path)
	if err != nil {
		return streamOutcome{}, err
	}
	defer f.Close()
	sp, err := stemroot.NewStreamPlanner(planOptions(seed, workers), stemroot.StreamOptions{})
	if err != nil {
		return streamOutcome{}, err
	}
	var out streamOutcome
	next := every
	var snapErr error
	err = trace.NewFastCSVReader(f).ScanBytes(func(name []byte, t float64) bool {
		sp.AddBytes(name, t)
		if sp.Count() >= next {
			if _, snapErr = sp.Snapshot(); snapErr != nil {
				return false
			}
			out.Snapshots++
			next += every
		}
		return true
	})
	if err == nil {
		err = snapErr
	}
	if err != nil {
		return streamOutcome{}, err
	}
	return finishStream(sp, out)
}

func finishStream(sp *stemroot.StreamPlanner, out streamOutcome) (streamOutcome, error) {
	plan, err := sp.Plan()
	if err != nil {
		return streamOutcome{}, err
	}
	if out.Final, err = sp.Snapshot(); err != nil {
		return streamOutcome{}, err
	}
	out.Distinct = len(plan.SampledIndices())
	out.PredErr = plan.PredictedError
	return out, nil
}

// --------------------------------------------------- planner, by layer

// replayPlanBatch is planBatch with a span per layer.
func replayPlanBatch(tr *tracer, p profileCSV, seed uint64) (planOutcome, error) {
	root := tr.begin("pipeline.plan_batch")
	defer tr.end(root)
	id := tr.begin("trace.csv_decode")
	names, times, err := trace.ReadProfileCSV(bytes.NewReader(p.data))
	tr.end(id)
	if err != nil {
		return planOutcome{}, err
	}
	id = tr.begin("stemroot.sample")
	plan, err := stemroot.Sample(names, times, planOptions(seed, 1))
	tr.end(id)
	if err != nil {
		return planOutcome{}, err
	}
	var js bytes.Buffer
	id = tr.begin("stemroot.plan_json_write")
	err = plan.WriteJSON(&js)
	tr.end(id)
	if err != nil {
		return planOutcome{}, err
	}
	return summarizePlan(plan, times, js.Len()), nil
}

// decomposePlan shows what the whole-path sample hides: stemroot.Sample
// taken apart into ROOT clustering and the KKT sizing pass through core's
// public functions, and the plan read back from its JSON. It reports the
// cluster count and whether both agree with Sample's own plan.
func decomposePlan(tr *tracer, p profileCSV, seed uint64) (clusters int, coreMatches, roundTrips bool, err error) {
	names, times, err := trace.ReadProfileCSV(bytes.NewReader(p.data))
	if err != nil {
		return 0, false, false, err
	}
	plan, err := stemroot.Sample(names, times, planOptions(seed, 1))
	if err != nil {
		return 0, false, false, err
	}
	var js bytes.Buffer
	if err := plan.WriteJSON(&js); err != nil {
		return 0, false, false, err
	}

	params := core.DefaultParams()
	params.Seed, params.Workers = seed, 1
	id := tr.begin("core.build_clusters")
	leaves := core.BuildClusters(names, times, params)
	tr.end(id)
	id = tr.begin("core.kkt")
	stats := core.ClusterStatsOf(leaves)
	sizes := core.OptimalSizes(stats, params)
	tr.end(id)
	coreMatches = len(leaves) == len(plan.Clusters)
	for i := 0; coreMatches && i < len(leaves); i++ {
		// Sample caps a cluster's size at its membership.
		if sizes[i] > len(leaves[i].Indices) {
			sizes[i] = len(leaves[i].Indices)
		}
		coreMatches = sizes[i] == len(plan.Clusters[i].Samples)
	}
	if coreMatches {
		coreMatches = core.PredictedError(stats, sizes, params) == plan.PredictedError
	}

	id = tr.begin("stemroot.plan_json_read")
	roundTrips = planRoundTrips(plan, js.Bytes())
	tr.end(id)
	return len(leaves), coreMatches, roundTrips, nil
}

// streamRows is a decoded trace held in memory: names interned, one index
// and one time per row.
type streamRows struct {
	names [][]byte
	idx   []uint16
	times []float64
	bytes int64
}

func loadStreamRows(path string) (*streamRows, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	rows := &streamRows{bytes: fi.Size()}
	seen := make(map[string]uint16)
	err = trace.NewFastCSVReader(f).ScanBytes(func(name []byte, t float64) bool {
		ix, ok := seen[string(name)]
		if !ok {
			ix = uint16(len(rows.names))
			seen[string(name)] = ix
			rows.names = append(rows.names, append([]byte(nil), name...))
		}
		rows.idx = append(rows.idx, ix)
		rows.times = append(rows.times, t)
		return true
	})
	if err == nil && len(rows.names) > math.MaxUint16 {
		err = errors.New("benchmark: too many kernel names for the row index")
	}
	return rows, err
}

// replayStream is streamServe split at the layer boundary the fused loop
// hides: one pass that only decodes (no-op yield), then the planner fed
// from memory with the same snapshot schedule, then the final plan.
func replayStream(tr *tracer, path string, rows *streamRows, seed uint64, every int) (streamOutcome, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return streamOutcome{}, 0, err
	}
	defer f.Close()
	root := tr.begin("pipeline.stream_serve")
	defer tr.end(root)

	decoded := 0
	id := tr.begin("trace.fast_decode")
	err = trace.NewFastCSVReader(f).ScanBytes(func([]byte, float64) bool { decoded++; return true })
	tr.end(id)
	if err != nil {
		return streamOutcome{}, 0, err
	}

	sp, err := stemroot.NewStreamPlanner(planOptions(seed, 1), stemroot.StreamOptions{})
	if err != nil {
		return streamOutcome{}, 0, err
	}
	var out streamOutcome
	id = tr.begin("core.incr_add")
	for lo := 0; lo < len(rows.idx); lo += every {
		hi := lo + every
		if hi > len(rows.idx) {
			hi = len(rows.idx)
		}
		for i := lo; i < hi; i++ {
			sp.AddBytes(rows.names[rows.idx[i]], rows.times[i])
		}
		if hi-lo == every {
			sid := tr.begin("stemroot.stream_snapshot")
			_, err = sp.Snapshot()
			tr.end(sid)
			if err != nil {
				tr.end(id)
				return streamOutcome{}, 0, err
			}
			out.Snapshots++
		}
	}
	tr.end(id)

	id = tr.begin("core.incr_plan")
	out, err = finishStream(sp, out)
	tr.end(id)
	return out, decoded, err
}

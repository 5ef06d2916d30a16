package gpu

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"stemroot/internal/kernelgen"
	"stemroot/internal/metrics"
	"stemroot/internal/parallel"
)

// KernelResult reports one simulated kernel execution.
type KernelResult struct {
	Cycles       float64
	Instructions int64
	L1HitRate    float64
	L2HitRate    float64
}

// Simulator executes kernels on the configured GPU. The shared L2 persists
// across kernels within a Simulator (real GPUs retain L2 state across kernel
// boundaries), enabling the §6.2 inter-kernel reuse ablation via
// Config.FlushL2BetweenKernels.
//
// Besides the L2, a Simulator owns a scratch arena — per-SM L1 caches,
// issue clocks, MSHR files and one smShard per SM (event queue, warp-stream
// arena, free list) — that is allocated once and reset between kernels, so
// steady-state RunKernel calls perform no heap allocation (pinned by
// TestRunKernelSteadyStateAllocs). Both engines run on the same shards.
//
// A Simulator is NOT safe for concurrent use: RunKernel mutates the shared
// L2 and the scratch arena. Parallel callers use one Simulator per worker
// (see RunSegmentedEngine and internal/pipeline).
type Simulator struct {
	cfg Config
	l2  *Cache

	// Scratch arena, reused across kernels. Slices indexed by SM are sized
	// once in New (the SM count is fixed per configuration); each shard's
	// queue and warp arena grow to at most cfg.WarpSlots entries.
	l1s        []*Cache
	issueClock []float64
	mshrs      []mshrState
	shards     []smShard
	// park holds, per SM, the event whose L1 miss the exact engine's SM is
	// parked on (still carrying the key it was popped with), or lastEvent
	// once the SM has drained. Kept apart from the shards so the
	// coordinator's minimum scan reads one contiguous array.
	park []event
	// k holds the current kernel's hoisted constants (in the arena so that
	// nothing escapes per call).
	k kernelConsts

	// par is the relaxed-sync engine's extra scratch (merge cursors, shadow
	// MSHRs), allocated lazily on the first RunKernelPar call — see
	// parkernel.go.
	par *parEngine

	// barrier, when non-nil, receives one epoch-barrier accounting sample
	// per RunKernelPar kernel (epoch count, compute/merge wall-clock split,
	// replayed-access and miss counts). Pure observability: it changes no
	// simulation result and is excluded from all cache keys. Nil disables
	// collection, including the per-phase timestamps.
	barrier *metrics.BarrierCollector
}

// SetBarrierCollector installs (or, with nil, removes) the epoch-barrier
// accounting sink. Call between kernels, from the goroutine that owns the
// Simulator.
func (s *Simulator) SetBarrierCollector(c *metrics.BarrierCollector) { s.barrier = c }

// New validates the configuration and returns a simulator with cold caches.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:        cfg,
		l2:         NewCache(cfg.L2),
		l1s:        make([]*Cache, cfg.SMs),
		issueClock: make([]float64, cfg.SMs),
		mshrs:      make([]mshrState, cfg.SMs),
		shards:     make([]smShard, cfg.SMs),
		park:       make([]event, cfg.SMs),
	}
	for i := range s.l1s {
		s.l1s[i] = NewCache(cfg.L1)
	}
	return s, nil
}

// Reset returns the simulator to its just-constructed state: cold L2, cold
// L1s. A Reset simulator is bit-identical in behaviour to a fresh New(cfg)
// one — Cache.Reset carries exactly that contract (pinned by
// TestCacheResetMatchesFresh), and every other piece of scratch is
// re-initialized at the start of each kernel — while keeping all backing
// arrays, so steady-state segment simulation over a reused simulator
// allocates nothing (TestSimulatorResetMatchesNew and
// TestRunSegmentedCachedSteadyStateAllocs pin the contract).
func (s *Simulator) Reset() {
	s.l2.Reset()
	for _, l1 := range s.l1s {
		l1.Reset()
	}
}

// mshrState tracks one SM's outstanding-miss slots (miss status holding
// registers). A miss occupies a slot until its fill returns; when every
// slot is busy the next miss stalls until the earliest fill.
//
// release is a binary min-heap over the outstanding fill-completion times.
// acquire's output depends only on the MINIMUM of the outstanding release
// times (issue = max(t, min)), so which physical slot is recycled is
// unobservable: replacing the root substitutes one minimum-valued element
// with issue+latency exactly as a linear scan overwriting the first minimum
// would. TestMSHRAcquireMatchesLinearScan pins this against the scan.
type mshrState struct {
	release []float64
}

// acquire reserves a slot for a miss issued at time t with the given fill
// latency, returning the actual issue time (>= t when all slots are busy).
func (m *mshrState) acquire(t, latency float64, cap int) float64 {
	if cap <= 0 {
		return t
	}
	h := m.release
	n := len(h)
	if n < cap {
		// Free slot: the fill outstands until t+latency; sift it up.
		h = append(h, t+latency)
		j := n
		for j > 0 {
			i := (j - 1) / 2
			if !(h[j] < h[i]) {
				break
			}
			h[i], h[j] = h[j], h[i]
			j = i
		}
		m.release = h
		return t
	}
	issue := t
	if r := h[0]; r > t {
		issue = r
	}
	// The earliest outstanding fill's slot is recycled: replace the root
	// with the new completion time and sift it down.
	v := issue + latency
	h[0] = v
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2] < h[j] {
			j = j2
		}
		if !(h[j] < v) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = v
	return issue
}

// smShard is one SM's private slice of the engine state: its event queue,
// its warp-stream arena and free list, the launch cursor into the SM's
// share of the grid, and result accumulators. Together with the per-SM
// arrays the Simulator owns (L1, MSHR file, issue clock), a shard is
// everything one SM's events touch short of the shared L2 and DRAM queue.
// The exact engine's coordinator and the par engine's workers both run SMs
// from these shards; the fields below the accumulators are each engine's own.
type smShard struct {
	heap      warpHeap
	warps     []kernelgen.Stream // slot arena; events index into it
	freeSlots []int32
	// Blocks are assigned round-robin, so SM sm launches blocks sm, sm+SMs,
	// ... in order, WarpsPerBlock warps each: its pending warps are the
	// ordinals [next, total) of that sequence, never materialized.
	next, total int

	finish   float64
	instrs   int64
	l1Hits   uint64
	l1Misses uint64

	// Exact engine: the issue time and address of the L1 miss this SM is
	// parked on (the event itself is Simulator.park[sm]).
	parkT    float64
	parkAddr uint64

	parShard
}

// kernelConsts are one kernel's hoisted timing constants: the per-kind
// dependency stall DependencyFraction*latency (divergent branches serialize
// both paths) and the memory-path terms. Config.Validate guarantees every
// entry is finite and non-negative, which is what keeps event keys
// non-decreasing per SM.
type kernelConsts struct {
	issueStep   float64
	stall       [kernelgen.KindCount]float64
	l1HitStall  float64
	l2Fill      float64
	dramLat     float64
	dramService float64
	mshrCap     int
	depFrac     float64
}

func (s *Simulator) setConsts(spec *kernelgen.Spec) {
	cfg := &s.cfg
	depFrac := cfg.DependencyFraction
	aluStall := depFrac * float64(cfg.ALULatency)
	// A divergence outside [0, 1] (or NaN) is clamped here rather than
	// rejected: specs are derived data, and the bound keeps the stall finite
	// and non-negative for any spec.
	div := spec.BranchDivergence
	if !(div > 0) {
		div = 0
	} else if div > 1 {
		div = 1
	}
	k := &s.k
	*k = kernelConsts{
		issueStep:   1.0 / float64(cfg.IssueWidth),
		l1HitStall:  depFrac * float64(cfg.L1Latency),
		l2Fill:      float64(cfg.L2Latency),
		dramLat:     float64(cfg.DRAMLatency),
		dramService: float64(s.l2.LineBytes()) / cfg.DRAMBytesPerCycle,
		mshrCap:     cfg.MSHRsPerSM,
		depFrac:     depFrac,
	}
	k.stall[kernelgen.OpALU] = aluStall
	k.stall[kernelgen.OpFP32] = aluStall
	k.stall[kernelgen.OpFP16] = depFrac * float64(cfg.FP16Latency)
	k.stall[kernelgen.OpSFU] = depFrac * float64(cfg.SFULatency)
	k.stall[kernelgen.OpBranch] = depFrac * (float64(cfg.ALULatency) * (1 + 2*div))
	k.stall[kernelgen.OpSync] = aluStall
}

// beginKernel resets the per-kernel state both engines share — L1s, MSHR
// files, issue clocks, shards, L2 statistics — hoists the kernel's
// constants, and launches each SM's first resident warps at cycle 0.
func (s *Simulator) beginKernel(spec *kernelgen.Spec) {
	cfg := &s.cfg
	if cfg.FlushL2BetweenKernels {
		s.l2.Flush()
	}
	s.l2.ResetStats()
	s.setConsts(spec)
	for sm := range s.shards {
		s.l1s[sm].Reset()
		s.issueClock[sm] = 0
		s.mshrs[sm].release = s.mshrs[sm].release[:0]
		sh := &s.shards[sm]
		sh.heap.reset()
		sh.warps = sh.warps[:0]
		sh.freeSlots = sh.freeSlots[:0]
		sh.next, sh.total = 0, 0
		if sm < spec.Blocks && spec.WarpsPerBlock > 0 {
			sh.total = (spec.Blocks - sm + cfg.SMs - 1) / cfg.SMs * spec.WarpsPerBlock
		}
		sh.finish, sh.instrs, sh.l1Hits, sh.l1Misses = 0, 0, 0, 0
		s.activate(spec, sm, 0)
	}
}

// activate fills free warp slots on sm with its next pending warps, queued
// ready at cycle `at`. Slot indices are recycled through the free list;
// recycling order cannot affect results because the event order never looks
// at slots and InitStream fully reinitializes a slot's contents.
func (s *Simulator) activate(spec *kernelgen.Spec, sm int, at float64) {
	sh := &s.shards[sm]
	wpb := spec.WarpsPerBlock
	for sh.next < sh.total {
		var slot int32
		if n := len(sh.freeSlots); n > 0 {
			slot = sh.freeSlots[n-1]
			sh.freeSlots = sh.freeSlots[:n-1]
		} else if len(sh.warps) < s.cfg.WarpSlots {
			sh.warps = append(sh.warps, kernelgen.Stream{})
			slot = int32(len(sh.warps) - 1)
		} else {
			break // every warp slot is resident
		}
		id := (sm+sh.next/wpb*s.cfg.SMs)*wpb + sh.next%wpb
		sh.next++
		spec.InitStream(&sh.warps[slot], id)
		sh.heap.push(event{key: math.Float64bits(at), id: uint64(id), slot: slot})
	}
}

// retire accounts for the warp of event e running out of instructions at
// e's ready cycle: its slot is freed and refilled from the SM's pending
// warps.
func (s *Simulator) retire(spec *kernelgen.Spec, sm int, e event) {
	sh := &s.shards[sm]
	at := e.ready()
	if at > sh.finish {
		sh.finish = at
	}
	sh.freeSlots = append(sh.freeSlots, e.slot)
	if sh.next < sh.total {
		s.activate(spec, sm, at)
	}
}

// RunKernel simulates one kernel to completion and returns its cycle count
// and cache behaviour. The engine is event-driven but cycle-accurate in its
// accounting: per-SM issue bandwidth, dependency stalls, L1/L2/DRAM
// latencies, and global DRAM bandwidth queueing all advance the clock.
//
// Semantics: repeatedly take the resident warp minimal in (ready cycle,
// launch id) and execute one instruction (the test oracle is literally that
// loop). Execution: per-SM event queues with conservative run-ahead. An
// event touches only its own SM's state — issue clock, L1, MSHR file,
// queue — unless it misses L1, in which case it also touches the shared L2
// and the DRAM queue. So each SM runs its own events in order until one
// misses L1 and parks on that event's key; a parked SM's later events all
// have larger keys (stalls are non-negative), hence once every SM is parked
// or drained the smallest parked key is the globally next shared access.
// The coordinator below serves it and resumes that SM. See DESIGN.md §5.5.
func (s *Simulator) RunKernel(spec *kernelgen.Spec) KernelResult {
	s.beginKernel(spec)
	for sm := range s.shards {
		s.park[sm] = lastEvent
		if q := &s.shards[sm].heap; q.n > 0 {
			s.runSM(spec, sm, q.pop())
		}
	}

	k := &s.k
	l2 := s.l2
	var dramFree float64
	for {
		sm, first := -1, &lastEvent
		for i := range s.park {
			if s.park[i].before(first) {
				sm, first = i, &s.park[i]
			}
		}
		if sm < 0 {
			break
		}
		sh := &s.shards[sm]
		t := sh.parkT
		fill := k.l2Fill
		if !l2.Access(sh.parkAddr) {
			// DRAM: latency plus bandwidth queueing.
			queue := dramFree - t
			if queue < 0 {
				queue = 0
			}
			if dramFree < t {
				dramFree = t
			}
			dramFree += k.dramService
			fill = k.dramLat + queue
		}
		// An L1 miss needs an MSHR; a full MSHR file delays the miss until
		// the earliest outstanding fill returns.
		issue := s.mshrs[sm].acquire(t, fill, k.mshrCap)
		e := *first
		e.setReady(t + k.depFrac*((issue-t)+fill))
		s.runSM(spec, sm, e)
	}
	return s.result()
}

// runSM advances one SM from event e — its warp's next event, not queued —
// until the SM's earliest event misses L1 (the SM parks on it: park[sm] and
// the shard's parkT/parkAddr describe the miss) or the SM drains (park[sm]
// becomes lastEvent). Everything the loop touches is SM-private, so the
// issue clock and counters live in locals throughout.
func (s *Simulator) runSM(spec *kernelgen.Spec, sm int, e event) {
	k := &s.k
	sh := &s.shards[sm]
	q := &sh.heap
	l1 := s.l1s[sm]
	ic := s.issueClock[sm]
	instrs, l1Hits := sh.instrs, sh.l1Hits
	if q.ev[0].before(&e) {
		e = q.replaceRoot(e)
	}
	w := &sh.warps[e.slot]
	for {
		ins, ok := w.Next()
		if !ok {
			s.retire(spec, sm, e)
			if q.n == 0 {
				s.park[sm] = lastEvent
				break
			}
			e = q.pop()
			w = &sh.warps[e.slot]
			continue
		}
		instrs++
		t := e.ready()
		if ic > t {
			t = ic
		}
		ic = t + k.issueStep
		if kind := ins.Kind; kind != kernelgen.OpLoad && kind != kernelgen.OpStore {
			e.setReady(t + k.stall[kind])
		} else if l1.Access(ins.Addr) {
			l1Hits++
			e.setReady(t + k.l1HitStall)
		} else {
			sh.l1Misses++
			s.park[sm], sh.parkT, sh.parkAddr = e, t, ins.Addr
			break
		}
		// Keep issuing this warp while it is still the SM's earliest.
		if q.ev[0].before(&e) {
			e = q.replaceRoot(e)
			w = &sh.warps[e.slot]
		}
	}
	s.issueClock[sm] = ic
	sh.instrs, sh.l1Hits = instrs, l1Hits
}

// result folds the per-SM accumulators into the kernel's result: a max and
// integer sums, so the fold order is immaterial.
func (s *Simulator) result() KernelResult {
	var res KernelResult
	var l1Hits, l1Misses uint64
	for sm := range s.shards {
		sh := &s.shards[sm]
		if sh.finish > res.Cycles {
			res.Cycles = sh.finish
		}
		res.Instructions += sh.instrs
		l1Hits += sh.l1Hits
		l1Misses += sh.l1Misses
	}
	res.L2HitRate = s.l2.HitRate()
	if tot := l1Hits + l1Misses; tot > 0 {
		res.L1HitRate = float64(l1Hits) / float64(tot)
	}
	return res
}

// RunSpecs simulates a sequence of kernels in order, preserving L2 state
// between them, and returns the per-kernel results and total cycle count.
func (s *Simulator) RunSpecs(specs []*kernelgen.Spec) ([]KernelResult, float64) {
	results := make([]KernelResult, len(specs))
	var total float64
	for i, sp := range specs {
		results[i] = s.RunKernel(sp)
		total += results[i].Cycles
	}
	return results, total
}

// DefaultSegmentLen is the replay-segment length RunSegmentedEngine uses when
// none is specified. Within a segment L2 state persists across kernels as
// in RunSpecs; each segment starts cold. 16 kernels is enough for the
// (small, §6.2) inter-kernel weight reuse to behave as in an unsegmented
// replay for all but the first kernels of a segment, while still exposing
// one unit of parallelism per 16 invocations.
const DefaultSegmentLen = 16

// segScratch is one segment worker's reusable state: the materialized specs
// of the segment in flight and the canonical key encoding
// (KeyForSegmentEngineAppend). Both reach steady-state capacity after the
// first segment and live on in idleScratch between calls, so a warm-replay
// segment allocates nothing here.
type segScratch struct {
	run    *segRun
	worker int
	specs  []kernelgen.Spec
	keyBuf []byte
	// compute is miss bound to this scratch once: handing a fresh closure to
	// GetOrCompute would allocate on every segment, hit or miss.
	compute func() ([]KernelResult, error)
}

// load materializes segment sg's specs into the scratch (bounded by segLen,
// so the working set stays one segment per worker) and returns the index of
// its first invocation. The specs are valid until the next load.
func (sc *segScratch) load(sg int) int {
	r := sc.run
	lo := sg * r.segLen
	specs := sc.specs[:0]
	for i, hi := lo, min(lo+r.segLen, r.n); i < hi; i++ {
		specs = append(specs, r.specAt(i))
	}
	sc.specs = specs
	return lo
}

// simulate runs the loaded segment into out on the worker's cold simulator:
// taken from idleSims on the worker's first simulated segment of a call,
// cold-Reset before every later one. Reset is bit-identical to New (see
// Simulator.Reset), so results are unchanged for every worker count while
// neither steady-state segments nor back-to-back calls construct L2+L1 state.
func (sc *segScratch) simulate(out []KernelResult) {
	r := sc.run
	sim := r.sims[sc.worker]
	if sim == nil {
		sim = getSimulator(r.cfg)
		r.sims[sc.worker] = sim
	} else {
		sim.Reset()
	}
	for i := range sc.specs {
		out[i] = r.eng.runKernel(sim, &sc.specs[i])
	}
}

// miss simulates the loaded segment into a fresh slice the cache will own.
func (sc *segScratch) miss() ([]KernelResult, error) {
	out := make([]KernelResult, len(sc.specs))
	sc.simulate(out)
	return out, nil
}

// segRun is the state of one RunSegmentedEngine call: the inputs, the
// results every segment writes its own window of, the error of the
// lowest-indexed failing segment, and one simulator slot and one scratch per
// worker. Calls take it from idleScratch and hand it back, so a sweep's
// hundreds of calls per configuration share a few of them.
type segRun struct {
	cfg       Config
	eng       Engine
	n, segLen int
	specAt    func(i int) kernelgen.Spec
	cache     SegmentCache
	dec       SegmentDecoder // cache, when it decodes into a window; else nil
	keys      []SegmentKey   // from the prefetch pass; empty without one
	results   []KernelResult
	sims      []*Simulator
	scratch   []*segScratch
	run       func(worker, sg int) // segment, bound once: a method value per call would allocate

	mu     sync.Mutex // guards err and errSeg
	err    error
	errSeg int
}

// segment executes segment sg on the given worker and writes its results to
// the segment's window of r.results. Windows are disjoint, so no two workers
// ever touch the same elements and no lock is taken on success.
func (r *segRun) segment(worker, sg int) {
	sc := r.scratch[worker]
	lo := sc.load(sg)
	if r.cache == nil {
		sc.simulate(r.results[lo:])
		return
	}
	// Cached: derive the content address and only simulate on miss — on the
	// worker's own simulator (GetOrCompute runs compute on the calling
	// goroutine, so it is never shared). A decoder writes a hit straight
	// into the window; otherwise hits and computed results alike are shared
	// cache-owned slices: copied into the window, never aliased.
	var key SegmentKey
	if len(r.keys) != 0 {
		key = r.keys[sg]
	} else {
		key, sc.keyBuf = KeyForSegmentEngineAppend(sc.keyBuf, r.cfg, sc.specs, r.eng)
	}
	window := r.results[lo : lo+len(sc.specs)]
	if r.dec != nil && r.dec.DecodeInto(key, window) {
		return
	}
	seg, err := r.cache.GetOrCompute(key, sc.compute)
	if err != nil {
		// Keep the lowest-indexed failure, the same worker-count-independent
		// choice parallel.MapStealing makes.
		r.mu.Lock()
		if r.err == nil || sg < r.errSeg {
			r.err, r.errSeg = err, sg
		}
		r.mu.Unlock()
		return
	}
	if len(seg) != len(window) {
		// A well-formed entry of the wrong length (a buggy writer or server;
		// the checksum does not stop it) would leave part of the window as
		// the caller's last call left it: degrade to a simulation, as every
		// other failed verification does.
		sc.simulate(window)
		return
	}
	copy(window, seg)
}

// RunSegmentedEngine simulates the n kernels specAt(0..n-1) as fixed-length
// replay segments, in parallel, under an execution mode: each kernel runs
// under eng — the exact engine (RunKernel, the zero Engine) or the
// relaxed-sync parallel engine (RunKernelPar with eng.Workers intra-kernel
// workers at DefaultEpoch). L2 state persists within a segment
// as in RunSpecs and is cold at segment starts — the standard
// trace-level-parallelism trade; the paper's §6.2 ablation bounds the
// inter-kernel reuse it discards. segLen <= 0 selects DefaultSegmentLen;
// workers <= 0 selects one worker per CPU (see parallel.Workers).
//
// specAt must be safe for concurrent calls with distinct indices and a pure
// function of i (like kernelgen.FromInvocation): workers materialize only
// their own segment's specs, so the full spec list is never built.
//
// Execution: segments are scheduled over parallel.ForEachStealing, so a
// free worker claims the lowest unclaimed segment and runs it on its own
// cold-Reset Simulator; a costly segment delays only the worker running it.
// Every segment starts cold and depends on nothing outside itself (the
// paper's §6.2: inter-kernel L2 reuse is minor), so it needs no ordering: it
// writes its own window of the results, and a failing segment's error is
// kept only if no lower segment failed. Segmentation depends only on n and
// segLen, so the returned results and error are bit-identical for every
// workers value, including the serial workers == 1 path, AND for every
// eng.Workers value — only eng.Mode affects output (pinned by
// TestRunSegmentedStealingDeterministicSkewed,
// TestRunSegmentedEngineReportsLowestFailingSegment and the pipeline
// determinism tests).
//
// A non-nil cache is consulted before each segment is simulated. A segment's
// result is a pure function of (engine fingerprint, cfg, its spec sequence) —
// the SegmentKey (KeyForSegmentEngineAppend) — so a hit is bit-identical to a
// fresh simulation. Exact-mode keys carry EngineFingerprint, par-mode keys
// ParEngineFingerprint plus DefaultEpoch, so the modes never share entries.
// Cached result slices are shared between callers; they are copied into the
// returned slice, never mutated in place, and a cached segment whose length
// is not its segment's is simulated instead (TestRunSegmentedEngineWrongLengthHit).
// A cache that is a SegmentDecoder — found once per call — is asked first to
// decode each segment's hit straight into its window.
//
// The results are written into dst[:n], which is grown only when its
// capacity is short, and returned: a caller that hands back the previous
// call's slice owns one window across calls, the way
// KeyForSegmentEngineAppend reuses its caller's buffer. dst == nil allocates
// the results. An all-hit call into a window of at least n results allocates
// nothing (TestRunSegmentedEngineWarmAllocs). On error the results are nil.
//
// In par mode the two worker counts compose: `workers` segment workers each
// run kernels that internally fan out over eng.Workers SM-shard workers.
// For workloads with many segments,
// segment workers alone saturate cores; eng.Workers pays off for single-
// kernel latency and short workloads.
func RunSegmentedEngine(dst []KernelResult, cfg Config, n int, specAt func(i int) kernelgen.Spec, segLen, workers int, cache SegmentCache, eng Engine) ([]KernelResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := eng.Validate(); err != nil {
		return nil, err
	}
	if segLen <= 0 {
		segLen = DefaultSegmentLen
	}
	nseg := (n + segLen - 1) / segLen
	nworkers := parallel.Workers(workers)

	if cap(dst) < n {
		dst = make([]KernelResult, n)
	}
	results := dst[:n]
	r := getRun(nworkers)
	r.cfg, r.eng, r.n, r.segLen, r.specAt, r.cache = cfg, eng.normalized(), n, segLen, specAt, cache
	r.dec, _ = cache.(SegmentDecoder)
	r.results = results

	// Batched key prefetch: when the cache has a batched backing tier
	// (BatchPrefetcher, e.g. simcache with a cachenet remote), derive every
	// segment key up front and announce them in one call, so the remote tier
	// is consulted in one round trip for the whole workload instead of once
	// per segment. The workers reuse the keys (a pure function of the input).
	if bp, ok := cache.(BatchPrefetcher); ok && bp.WantPrefetch() {
		r.keys = slices.Grow(r.keys, nseg)[:nseg]
		sc := r.scratch[0]
		for sg := range r.keys {
			sc.load(sg)
			r.keys[sg], sc.keyBuf = KeyForSegmentEngineAppend(sc.keyBuf, cfg, sc.specs, r.eng)
		}
		bp.Prefetch(r.keys)
	}

	parallel.ForEachStealing(nseg, nworkers, r.run)
	err := r.err
	putRun(r) // not deferred: a run abandoned by a panic is not reused
	if err != nil {
		return nil, err
	}
	return results, nil
}

// idleScratch holds idle segRuns between RunSegmentedEngine calls: a warm
// sweep makes thousands of all-hit calls, and growing the spec and key
// buffers from nil on each was over half of what one allocated. Like idleSims
// below, and for the reason given there, it is a bounded LIFO, not a sync.Pool.
var idleScratch struct {
	sync.Mutex
	runs []*segRun // most recently returned last
}

// maxIdleScratch bounds what idleScratch retains (oldest dropped first): per
// run and worker, one segment of specs and one key encoding — a few KiB —
// and per run the prefetch pass's keys, up to maxIdleKeys of them (32 KiB).
const maxIdleScratch, maxIdleKeys = 16, 1024

// getRun returns a segRun with scratch for nworkers workers, the most
// recently returned idle one if there is any.
func getRun(nworkers int) *segRun {
	var r *segRun
	idleScratch.Lock()
	idleScratch.runs, r = parallel.PopIdle(idleScratch.runs)
	idleScratch.Unlock()
	if r == nil {
		r = new(segRun)
		r.run = r.segment
	}
	for w := len(r.scratch); w < nworkers; w++ {
		sc := &segScratch{run: r, worker: w}
		sc.compute = sc.miss
		r.scratch = append(r.scratch, sc)
		r.sims = append(r.sims, nil)
	}
	return r
}

// putRun ends a call: its simulators go back to idleSims, everything that
// refers to the caller's data is dropped, and the run goes to idleScratch.
func putRun(r *segRun) {
	putSimulators(r.sims)
	clear(r.sims)
	r.specAt, r.cache, r.dec, r.keys = nil, nil, nil, r.keys[:0]
	if cap(r.keys) > maxIdleKeys {
		r.keys = nil
	}
	r.results, r.err = nil, nil
	idleScratch.Lock()
	idleScratch.runs = parallel.PushIdle(idleScratch.runs, r, maxIdleScratch)
	idleScratch.Unlock()
}

// idleSims holds idle simulators between RunSegmentedEngine calls. A sweep
// calls the segmented runner hundreds of times per configuration, and a
// Simulator is 0.4 MiB of cache arrays for the baseline part. It is a plain
// bounded LIFO rather than a sync.Pool on purpose: a sync.Pool empties on the
// garbage collector's schedule and hides an item parked on another P, so how
// many simulators were rebuilt — and the process's peak memory — differed
// from run to run. Here reuse depends only on the sequence of calls.
var idleSims struct {
	sync.Mutex
	sims []*Simulator // most recently returned last
}

// maxIdleSims bounds what idleSims retains; the oldest is dropped first.
const maxIdleSims = 16

// getSimulator returns a cold simulator for an already validated cfg (a
// comparable struct; Validate has rejected the NaN fields that would make a
// Config unequal to itself).
func getSimulator(cfg Config) *Simulator {
	idleSims.Lock()
	for i := len(idleSims.sims) - 1; i >= 0; i-- {
		if sim := idleSims.sims[i]; sim.cfg == cfg {
			last := len(idleSims.sims) - 1
			copy(idleSims.sims[i:], idleSims.sims[i+1:])
			idleSims.sims[last] = nil
			idleSims.sims = idleSims.sims[:last]
			idleSims.Unlock()
			sim.Reset()
			return sim
		}
	}
	idleSims.Unlock()
	sim, _ := New(cfg) // cannot fail: cfg is valid
	return sim
}

// putSimulators hands a call's simulators (nil for workers that never ran a
// segment) back to idleSims.
func putSimulators(sims []*Simulator) {
	idleSims.Lock()
	defer idleSims.Unlock()
	for _, sim := range sims {
		if sim == nil {
			continue
		}
		idleSims.sims = parallel.PushIdle(idleSims.sims, sim, maxIdleSims)
	}
}

// String describes the configuration, useful in experiment logs.
func (s *Simulator) String() string {
	c := s.cfg
	return fmt.Sprintf("gpu(%s: %d SMs, L1 %dKiB, L2 %dKiB)",
		c.Name, c.SMs, c.L1.SizeBytes>>10, c.L2.SizeBytes>>10)
}

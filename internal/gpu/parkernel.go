package gpu

import (
	"context"
	"math"
	"runtime/pprof"
	"time"

	"stemroot/internal/kernelgen"
	"stemroot/internal/metrics"
	"stemroot/internal/parallel"
)

// DefaultEpoch is the epoch length, in simulated cycles, at which
// RunSegmentedEngine runs the relaxed-sync parallel engine. The value trades
// error for barrier frequency: shorter epochs refresh the shared-L2 snapshot
// more often (lower error, more barriers), longer ones amortize the barrier.
// A sweep over 16–512 cycles (EXPERIMENTS.md, "Tried, measured, removed")
// found 64 the largest power-of-two epoch that keeps the max total-cycles
// error across the DSE suites under the 2% bar, which
// TestParEngineAccuracyContract holds.
const DefaultEpoch = 64

// parAccess is one buffered shared-L2 access: the issue time of the L1 miss
// that generated it, the line address, the warp slot that issued it, and the
// total latency the shard provisionally charged for it (MSHR issue delay +
// fill). Within one SM's buffer accesses are naturally time-ordered (the
// per-SM event loop issues instructions at nondecreasing times), so the
// barrier merge is a k-way merge, not a sort. The slot and charged latency
// are what the barrier's timing correction needs: the merge replay computes
// the TRUE latency of every access (real shared L2, real global DRAM queue,
// shadow MSHR fed true fills) and feeds the difference back to the issuing
// warp's clock.
type parAccess struct {
	t    float64
	addr uint64
	lat  float64
	slot int32
}

// parShard is the par engine's share of an smShard: the event carried
// across the epoch boundary, the in-epoch DRAM-queue estimate, the buffered
// shared-L2 accesses and their per-warp corrections, and the self-fetch
// overlay. Workers own disjoint SM ranges, so epoch execution shares no
// mutable state across goroutines (the shared L2 is only Probed, which is
// read-only).
type parShard struct {
	// corr accumulates, per warp slot, the barrier correction: the summed
	// depFrac-weighted difference between each access's true fill (from the
	// merge replay) and the fill the shard charged in-epoch. Applied to the
	// slot's queued event (and held event) at the barrier, then zeroed.
	// Sized to cfg.WarpSlots, the arena's bound.
	corr     []float64
	held     event // next event, carried across the epoch boundary
	hasHeld  bool
	dramFree float64     // in-epoch bandwidth-queue estimate (reset to the global value at each epoch start)
	acc      []parAccess // shared-L2 accesses buffered for the barrier merge
	done     bool

	// Self-fetch overlay: a direct-mapped, epoch-stamped table of the line
	// tags this SM itself fetched from DRAM during the CURRENT epoch. The
	// shared-L2 snapshot is frozen for the whole epoch, so without the
	// overlay an SM could not even see its own fills — every L1-capacity
	// re-miss on a line it just brought in would be re-priced as a DRAM
	// fetch, the dominant error source for memory-bound kernels. A hit
	// requires tag AND epoch stamp to match (stale entries expire for free
	// at the barrier, no clearing pass); index collisions merely overwrite
	// an entry, degrading the prediction, never correctness — and the table
	// is a pure function of the shard's own access stream, so determinism
	// across worker counts is untouched.
	ovTag   []uint64
	ovEpoch []uint32
}

// parOverlayBits sizes the self-fetch overlay: 2^12 = 4096 entries (48 KiB)
// per SM, several times the distinct-line footprint an SM plausibly fetches
// inside one epoch, so collisions are rare.
const (
	parOverlayBits = 12
	parOverlaySize = 1 << parOverlayBits
	parOverlayMask = parOverlaySize - 1
)

// parEngine is the Simulator's extra scratch for RunKernelPar: the barrier
// merge's cursors and bookkeeping. Allocated lazily on the first parallel
// run and reused across kernels, so steady-state RunKernelPar calls reuse
// every backing array exactly as RunKernel reuses the shards.
type parEngine struct {
	heads []int // per-SM merge cursor into shards[sm].acc
	// shadow is the per-SM replay MSHR file: seeded from the real MSHR state
	// at each epoch start, advanced by the merge replay with TRUE fill
	// latencies, and swapped back over the real state at the barrier — so
	// the in-epoch MSHR distortion from mispredicted fills (a snapshot-miss
	// charged as a DRAM fetch occupies a slot hundreds of cycles longer than
	// the L2 hit it really was) never survives an epoch boundary.
	shadow []mshrState
	// epoch is the current epoch's overlay stamp. It increments monotonically
	// across the engine's lifetime (never reset per kernel): a stale overlay
	// entry can only false-hit if its stamp recurs, and a monotone counter
	// never recurs, which also keeps a warm arena bit-identical to a fresh
	// one — fresh tables carry stamp 0 and the counter starts at 1.
	epoch uint32
	// svc is the current epoch's fair-share DRAM service increment:
	// dramService scaled by the number of live shards at the epoch start.
	// Each shard prices bandwidth queueing against only its own in-epoch
	// fetches, so the unscaled increment would model every SM as owning the
	// full DRAM bandwidth — a systematic underestimate of queueing delay.
	// Fair-share scaling charges each fetch as if the live SMs split the
	// bandwidth evenly (the exact engine's steady state under uniform
	// traffic); the true global queue is re-derived from the merged access
	// sequence at every barrier, so the approximation never compounds across
	// epochs. The live count is a pure function of shard states at the
	// barrier — deterministic for any worker count.
	svc float64

	// lt is the barrier merge's tournament tree.
	lt loserTree

	// Pool-epoch state: the shard-phase closure, bound once and reading its
	// per-epoch parameters from the fields beside it, so no allocation
	// happens per epoch.
	spec     *kernelgen.Spec
	epochEnd float64
	dramSeed float64
	fnShard  func(worker, sm int)

	// testMerge, when non-nil, replaces mergeEpochSerial — the hook the
	// oracle test uses to swap in the linear-scan reference merge. Always
	// nil in production.
	testMerge func(k *kernelConsts, dramFree float64) float64

	// Per-kernel barrier accounting, folded into the Simulator's
	// BarrierCollector (when set) at kernel end. The nanosecond fields are
	// only advanced when collect is true — no time.Now on untimed runs.
	collect   bool
	epochs    int64
	replayed  int64
	misses    int64
	computeNS int64
	mergeNS   int64
}

// RunKernelPar simulates one kernel with its SMs sharded across workers,
// advancing all SMs in bounded time epochs against an epoch-synchronized
// shared L2. It is the relaxed-sync half of the two-mode engine: both run
// each SM's events from its own queue in (ready cycle, launch id) order, but
// where RunKernel parks an SM on every L1 miss until the miss is globally
// next (exact shared state at every instruction), RunKernelPar lets each SM
// run privately within an epoch and reconciles the shared state at epoch
// barriers.
//
// Within an epoch [T, T+epoch) each SM advances its own event loop — private
// L1, MSHR file, issue clock, and event queue — and treats the shared L2 as a
// read-only snapshot of its state at T (Cache.probeLine) overlaid with the lines
// the SM itself fetched since T (the self-fetch overlay): predicted hits
// cost the L2 fill latency, predicted misses model DRAM latency plus a
// per-SM fair-share bandwidth-queue estimate — seeded from the global DRAM
// queue at T and advanced by the line service time scaled by the number of
// live SMs, i.e. each SM prices fetches as if the live SMs split DRAM
// bandwidth evenly. Every shared-L2 access is buffered. At the barrier the buffers are merged in
// (timestamp, SM-id) order — ties prefer the lower SM id, and one SM's
// accesses are already in program order — and applied to the one shared L2
// model via Cache.Access, with replay misses advancing the global DRAM
// queue. The L2 contents, its hit/miss statistics, and the DRAM queue
// therefore evolve through exactly one deterministic sequence of exact
// cache-model transitions.
//
// Determinism: an SM's execution within an epoch is a pure function of its
// own state and the shared snapshot at the epoch start; the merge order is a
// pure function of the buffered (timestamp, SM-id) pairs. Neither depends on
// how SMs are partitioned into workers or on goroutine scheduling, so the
// result is bit-identical for every worker count at a fixed epoch length —
// only the epoch length affects output (pinned by
// TestRunKernelParDeterministicAcrossWorkers under -race). Worker counts
// <= 0 select one worker per CPU; counts above the SM count are clamped to
// it.
//
// The degenerate case — one epoch spanning the whole kernel — is defined as
// the exact engine: epoch <= 0 (or +Inf, or NaN) runs RunKernel itself, for
// any worker count, so the single-epoch result is bit-identical to the
// serial engine (pinned by TestRunKernelParDegenerateEpochMatchesRunKernel).
// Finite epochs are the approximation; TestParEngineAccuracyContract bounds
// their total-cycles error against the exact engine at DefaultEpoch.
//
// Accuracy note: prediction (snapshot probe) and replay (merged Access) can
// disagree on individual accesses — that timing slack, bounded by the epoch
// length, is the entire error of the mode. KernelResult.L2HitRate reports
// the replayed shared L2's statistics, i.e. the exact cache model driven by
// the merged access sequence.
//
// Like RunKernel, RunKernelPar is NOT safe for concurrent use on one
// Simulator — it owns the shared L2 and the scratch arena. The worker
// goroutines it spawns internally are labeled with runtime/pprof labels
// (phase=worker vs phase=coordinator) so CPU profiles attribute time to
// pool execution vs. the coordinator's serial barrier slices.
func (s *Simulator) RunKernelPar(spec *kernelgen.Spec, workers int, epoch float64) KernelResult {
	if !(epoch > 0) || math.IsInf(epoch, 1) {
		return s.RunKernel(spec)
	}
	cfg := s.cfg
	s.beginKernel(spec)
	s.ensurePar()
	shards := s.shards
	for sm := range shards {
		s.par.shadow[sm].release = s.par.shadow[sm].release[:0]
		s.par.heads[sm] = 0
		sh := &shards[sm]
		if sh.ovTag == nil {
			sh.corr = make([]float64, cfg.WarpSlots)
			sh.ovTag = make([]uint64, parOverlaySize)
			sh.ovEpoch = make([]uint32, parOverlaySize)
		}
		sh.hasHeld = false
		sh.dramFree = 0
		sh.acc = sh.acc[:0]
		sh.done = false
	}
	k := &s.k

	// parallel.Workers applies the repo-wide scheduling policy (<= 0 means
	// one per CPU, caps at GOMAXPROCS — oversubscription only time-slices);
	// clamping further to the SM count just drops workers that would own
	// zero SMs. Neither clamp can change results: worker count is
	// partitioning, and partitioning is invisible by the determinism
	// argument above.
	nw := parallel.Workers(workers)
	if nw > cfg.SMs {
		nw = cfg.SMs
	}
	p := s.par
	p.epochs, p.replayed, p.misses = 0, 0, 0
	p.computeNS, p.mergeNS = 0, 0
	p.collect = s.barrier != nil
	collect := p.collect

	if nw <= 1 {
		// Serial path: same algorithm, no goroutines (and no allocations —
		// steady-state j1 calls run entirely in the arena, pinned by
		// TestRunKernelParSerialSteadyStateAllocs). Bit-identical to the
		// parallel path by the determinism argument above.
		var dramFree float64
		var tPhase time.Time
		for {
			epochEnd, alive := s.parNextEpoch(epoch, k)
			if !alive {
				break
			}
			s.par.epoch++
			s.par.epochs++
			if collect {
				tPhase = time.Now()
			}
			for sm := range shards {
				sh := &shards[sm]
				if !sh.done {
					sh.dramFree = dramFree
					s.par.shadow[sm].release = append(s.par.shadow[sm].release[:0], s.mshrs[sm].release...)
					s.runShardEpoch(spec, sm, epochEnd, k)
				}
			}
			if collect {
				now := time.Now()
				s.par.computeNS += int64(now.Sub(tPhase))
				tPhase = now
			}
			dramFree = s.runMerge(k, dramFree)
			if collect {
				s.par.mergeNS += int64(time.Since(tPhase))
			}
		}
	} else {
		s.parRunEpochs(spec, k, nw, epoch)
	}

	if c := s.barrier; c != nil {
		c.AddKernel(metrics.BarrierSample{
			Epochs:    s.par.epochs,
			ComputeNS: s.par.computeNS,
			MergeNS:   s.par.mergeNS,
			Replayed:  s.par.replayed,
			Misses:    s.par.misses,
		})
	}
	return s.result()
}

// ensurePar allocates the par engine's scratch on first use.
func (s *Simulator) ensurePar() {
	if s.par == nil {
		s.par = &parEngine{
			heads:  make([]int, s.cfg.SMs),
			shadow: make([]mshrState, s.cfg.SMs),
		}
	}
}

// runMerge runs the barrier merge, honoring the oracle test hook.
func (s *Simulator) runMerge(k *kernelConsts, dramFree float64) float64 {
	if tm := s.par.testMerge; tm != nil {
		return tm(k, dramFree)
	}
	return s.mergeEpochSerial(k, dramFree)
}

// parRunEpochs is the multi-worker epoch loop on a persistent
// barrier-synchronized pool (parallel.Pool): the coordinator publishes the
// epoch's parameters in the arena, dispatches the shard phase over the
// intra-kernel workers, then runs the barrier merge itself (merge.go). The
// pool's calling-goroutine-as-worker-0 design means the coordinator is
// never idle during the shard phase; each round resets the pool's cursor and
// the workers claim shards from it, and the channel-barrier rounds replace
// the per-worker goroutine spawns a ForEachStealing-per-epoch design would
// pay thousands of times per kernel. The shard closure is bound once per
// arena and reads its per-epoch parameters (epoch end, DRAM-queue seed,
// spec) from parEngine fields, so the loop allocates nothing per epoch.
// pprof labels attribute samples to pool workers (phase=worker) vs. the
// coordinator (phase=coordinator), whose serial slices are the merge's
// Amdahl share — a BarrierCollector measures the same split with
// timestamps.
func (s *Simulator) parRunEpochs(spec *kernelgen.Spec, k *kernelConsts, nw int, epoch float64) {
	p := s.par
	pool := parallel.NewPool(nw, func(_ int, loop func()) {
		pprof.Do(context.Background(), pprof.Labels("gpu-engine", "par", "phase", "worker"), func(context.Context) { loop() })
	})
	defer pool.Close()
	p.spec = spec
	s.parBindShardPhase()
	collect := p.collect
	sms := s.cfg.SMs
	pprof.Do(context.Background(), pprof.Labels("gpu-engine", "par", "phase", "coordinator"), func(context.Context) {
		var dramFree float64
		var tPhase time.Time
		for {
			epochEnd, alive := s.parNextEpoch(epoch, k)
			if !alive {
				break
			}
			p.epoch++
			p.epochs++
			p.epochEnd = epochEnd
			p.dramSeed = dramFree
			if collect {
				tPhase = time.Now()
			}
			pool.Run(sms, p.fnShard)
			if collect {
				now := time.Now()
				p.computeNS += int64(now.Sub(tPhase))
				tPhase = now
			}
			dramFree = s.runMerge(k, dramFree)
			if collect {
				p.mergeNS += int64(time.Since(tPhase))
			}
		}
	})
	p.spec = nil
}

// parBindShardPhase binds the shard-phase closure into the arena (once per
// arena lifetime — it captures only the Simulator and reads everything
// per-epoch from parEngine fields, which the pool's channel barriers order
// against worker reads).
func (s *Simulator) parBindShardPhase() {
	if s.par.fnShard != nil {
		return
	}
	p := s.par
	p.fnShard = func(_, sm int) {
		sh := &s.shards[sm]
		if !sh.done {
			sh.dramFree = p.dramSeed
			p.shadow[sm].release = append(p.shadow[sm].release[:0], s.mshrs[sm].release...)
			s.runShardEpoch(p.spec, sm, p.epochEnd, &s.k)
		}
	}
}

// parNextEpoch scans the shards for the earliest pending event and returns
// the end of the grid-aligned epoch window containing it — epochs live on
// the fixed grid [n*epoch, (n+1)*epoch), so boundaries are a pure function
// of the epoch length and the global state, never of worker count; windows
// in which no SM has an event are skipped rather than barriered through.
// Shards with no held event and an empty queue can never schedule again
// (activation only happens at retirement, which needs a live warp) and are
// marked done. alive == false means the kernel is complete.
func (s *Simulator) parNextEpoch(epoch float64, k *kernelConsts) (epochEnd float64, alive bool) {
	minNext := math.Inf(1)
	live := 0
	for sm := range s.shards {
		sh := &s.shards[sm]
		if sh.done {
			continue
		}
		switch {
		case sh.hasHeld:
			live++
			if r := sh.held.ready(); r < minNext {
				minNext = r
			}
		case sh.heap.n > 0:
			live++
			if r := sh.heap.ev[0].ready(); r < minNext {
				minNext = r
			}
		default:
			sh.done = true
		}
	}
	if math.IsInf(minNext, 1) {
		return 0, false
	}
	s.par.svc = k.dramService * float64(live)
	return (math.Floor(minNext/epoch) + 1) * epoch, true
}

// runShardEpoch advances one SM's event loop until its next event falls at
// or beyond epochEnd (the event is then held for the next epoch) or the SM
// drains. The loop body mirrors runSM's per-instruction accounting and event
// order exactly, with two substitutions: the shared L2 is Probed (read-only
// snapshot prediction, augmented by the shard's self-fetch overlay) instead
// of Accessed, with the access buffered for the barrier merge; and DRAM
// bandwidth queueing runs against the shard's private fair-share estimate
// (service time scaled by the live-SM count) instead of the global queue —
// so an L1 miss never parks.
func (s *Simulator) runShardEpoch(spec *kernelgen.Spec, sm int, epochEnd float64, k *kernelConsts) {
	sh := &s.shards[sm]
	q := &sh.heap
	var e event
	if sh.hasHeld {
		e, sh.hasHeld = sh.held, false
	} else if q.n > 0 {
		e = q.pop()
	} else {
		sh.done = true
		return
	}

	l1 := s.l1s[sm]
	mshr := &s.mshrs[sm]
	l2 := s.l2
	ic := s.issueClock[sm]
	ep := s.par.epoch
	svc := s.par.svc

	for {
		if q.ev[0].before(&e) {
			e = q.replaceRoot(e)
		}
		if e.ready() >= epochEnd {
			sh.held, sh.hasHeld = e, true
			break
		}
		ins, ok := sh.warps[e.slot].Next()
		if !ok {
			s.retire(spec, sm, e)
			if q.n == 0 {
				sh.done = true
				break
			}
			e = q.pop()
			continue
		}
		sh.instrs++

		t := e.ready()
		if ic > t {
			t = ic
		}
		ic = t + k.issueStep

		if kind := ins.Kind; kind != kernelgen.OpLoad && kind != kernelgen.OpStore {
			e.setReady(t + k.stall[kind])
		} else if l1.Access(ins.Addr) {
			sh.l1Hits++
			e.setReady(t + k.l1HitStall)
		} else {
			sh.l1Misses++
			line := l2.lineIndex(ins.Addr)
			oi := line & parOverlayMask
			var fill float64
			if l2.probeLine(line) || (sh.ovEpoch[oi] == ep && sh.ovTag[oi] == line) {
				fill = k.l2Fill
			} else {
				queue := sh.dramFree - t
				if queue < 0 {
					queue = 0
				}
				if sh.dramFree < t {
					sh.dramFree = t
				}
				sh.dramFree += svc
				fill = k.dramLat + queue
				sh.ovTag[oi] = line
				sh.ovEpoch[oi] = ep
			}
			issue := mshr.acquire(t, fill, k.mshrCap)
			lat := (issue - t) + fill
			sh.acc = append(sh.acc, parAccess{t: t, addr: ins.Addr, lat: lat, slot: e.slot})
			e.setReady(t + k.depFrac*lat)
		}
	}
	s.issueClock[sm] = ic
}

package gpu

import (
	"math"
)

// This file is the epoch barrier's merge: the reconciliation of every
// shard's buffered shared-L2 accesses against the one true L2 model and the
// global DRAM queue, plus the per-warp timing correction that feeds the
// repriced fills back into the shards. Two implementations share one
// contract (bit-identical outcomes in global (timestamp, SM-id) order):
//
//   - mergeEpochSerial: a single-goroutine k-way merge over the per-SM
//     buffers through a loser tree — the serial fallback, and the oracle's
//     shape (the preserved-reference linear-scan merge in merge_test.go
//     pins it).
//   - mergeEpochBanked: the three-phase parallel merge (DESIGN.md §9
//     addendum). Phase 1 replays accesses against the L2 in parallel,
//     partitioned by L2 set bank — accesses to disjoint sets never interact
//     on cache state, and hit/miss outcomes depend only on the RELATIVE
//     stamp order within a set, so per-bank replay in global order with
//     disjoint, order-preserving stamp ranges reproduces the serial
//     replay's outcomes exactly. Phase 2 folds the global DRAM queue over
//     the miss stream only, serially, in global order — the queue is the
//     one truly sequential resource, but it sees only misses. Phase 3
//     applies shadow-MSHR acquires and warp corrections per SM in
//     parallel — both are SM-private, and the global order restricted to
//     one SM is exactly its buffer order, so even float accumulation order
//     matches the serial merge.
//
// Determinism: every phase's output is a pure function of the buffered
// accesses, never of scheduling — phase 1's banks are data-partitioned,
// phases run under full barriers, and all counters are integer sums — so
// results are bit-identical for every (kernel-workers x merge-workers)
// combination (TestRunKernelParMergeWorkerInvariant pins the matrix).
//
// Access timestamps are finite by construction (epoch ends are finite and
// every time quantity derives from validated finite config values); the
// loser tree uses +Inf as its exhausted-stream sentinel and NaN keys would
// not order, so non-finite timestamps — impossible outside a deliberately
// poisoned config, which the exact engine mishandles equally — are outside
// the merge's contract.

// mergeBankMax caps the number of L2 set banks the parallel replay
// partitions into. 64 banks over the stock 1024-set L2 gives 16 contiguous
// sets per bank — far more banks than plausible merge workers, so stealing
// can balance skewed address mixes, while keeping the per-epoch
// bank-bookkeeping sweeps (SMs x banks) cheap.
const mergeBankMax = 64

// mergeBankedMinAccesses is the banked path's activation threshold: epochs
// replaying fewer total accesses than this run the serial loser-tree merge
// even when merge workers are available. Both paths are bit-identical, so
// the cutoff is pure scheduling — a tiny epoch's merge is faster inline
// than the bucketing sweep plus two pool barriers it would otherwise pay.
const mergeBankedMinAccesses = 128

// loserTree is a tournament tree for k-way merges: node[0] holds the
// current winner (the stream with the least key), and each internal node
// holds the loser of the match played there. Advancing the winning stream
// and replaying its leaf-to-root path costs O(log k) comparisons, against
// the O(k) linear head-scan it replaces. Keys order by (key, stream-id) —
// ties go to the lower stream — matching the serial scan's strict `<`
// ordering exactly, so swapping the scan for the tree changes no merge
// order. Exhausted streams take a +Inf key. Scratch is reused across
// epochs; ensure only reallocates on growth.
type loserTree struct {
	k    int       // live stream count
	size int       // power-of-two tree width >= k
	node []int32   // node[0] = winner; node[1..size-1] = loser at that node
	key  []float64 // per-stream key; +Inf = exhausted (real keys are finite)
	win  []int32   // build scratch: winner at each node, leaves at win[size+s]
}

// ensure sizes the tree for k streams and sets the padding streams'
// sentinel keys. The caller fills key[0:k] and then calls build.
func (lt *loserTree) ensure(k int) {
	size := 1
	for size < k {
		size <<= 1
	}
	if cap(lt.key) < size {
		lt.node = make([]int32, size)
		lt.key = make([]float64, size)
		lt.win = make([]int32, 2*size)
	}
	lt.node = lt.node[:size]
	lt.key = lt.key[:size]
	lt.win = lt.win[:2*size]
	lt.k = k
	lt.size = size
	for s := k; s < size; s++ {
		lt.key[s] = math.Inf(1)
	}
}

// less orders streams by (key, stream-id) — the merge's total order.
func (lt *loserTree) less(a, b int32) bool {
	ka, kb := lt.key[a], lt.key[b]
	return ka < kb || (ka == kb && a < b)
}

// build plays the full tournament bottom-up in O(size).
func (lt *loserTree) build() {
	size := lt.size
	if size == 1 {
		lt.node[0] = 0
		return
	}
	win := lt.win
	for s := 0; s < size; s++ {
		win[size+s] = int32(s)
	}
	for i := size - 1; i >= 1; i-- {
		a, b := win[2*i], win[2*i+1]
		if lt.less(b, a) {
			a, b = b, a
		}
		win[i] = a
		lt.node[i] = b
	}
	lt.node[0] = win[1]
}

// update replays stream s's leaf-to-root path after its key changed. Only
// valid for the current winner (s == node[0]) — the k-way-merge step.
func (lt *loserTree) update(s int32) {
	w := s
	for j := (lt.size + int(s)) >> 1; j >= 1; j >>= 1 {
		if lt.less(lt.node[j], w) {
			w, lt.node[j] = lt.node[j], w
		}
	}
	lt.node[0] = w
}

// mergeScratch is one merge worker's private per-bank replay scratch: the
// compact list of SMs with accesses in the bank (ascending SM id, so the
// loser tree's stream-index tie-break preserves the global SM-id
// tie-break), their cursors into the bank sub-lists, and the worker's own
// tournament tree. Indexed by pool worker id — the pool's ownership
// contract makes that race-free without synchronization.
type mergeScratch struct {
	sms []int32
	cur []int32
	end []int32
	lt  loserTree
}

// parSetupMerge fixes the kernel's merge configuration: worker counts, the
// L2 bank geometry, and the banked path's scratch. Bank geometry cannot
// affect results (the order-isomorphism argument above); it only shapes the
// parallel partition, so it favors contiguous set ranges — one bank's way
// records are one contiguous run of memory, so concurrent banks never
// false-share a cache line.
func (s *Simulator) parSetupMerge(nw, mw int) {
	p := s.par
	p.nw, p.mw = nw, mw
	p.epochs, p.replayed, p.misses = 0, 0, 0
	p.computeNS, p.mergeNS = 0, 0
	p.bankedEpochs = 0
	p.collect = s.barrier != nil

	nb := 1
	p.bankPow2 = false
	p.bankShift = 0
	if sets := s.l2.sets; mw > 1 && sets > 1 {
		nb = mergeBankMax
		if int64(nb) > sets {
			nb = int(sets)
		}
		if s.l2.setPow2 {
			// sets and nb are both powers of two here (mergeBankMax is, and
			// nb == sets is the only other case); bank = set >> shift.
			p.bankPow2 = true
			for int64(nb)<<p.bankShift < sets {
				p.bankShift++
			}
		}
	}
	p.nbanks = nb
	p.wantBanked = mw > 1 && nb > 1
	if !p.wantBanked {
		return
	}
	if cap(p.bankBase) < nb+1 {
		p.bankBase = make([]int, nb+1)
		p.bankHits = make([]uint64, nb)
		p.bankMisses = make([]uint64, nb)
	}
	p.bankBase = p.bankBase[:nb+1]
	p.bankHits = p.bankHits[:nb]
	p.bankMisses = p.bankMisses[:nb]
	poolW := nw
	if mw > poolW {
		poolW = mw
	}
	if len(p.wscratch) < poolW {
		p.wscratch = make([]mergeScratch, poolW)
	}
}

// bankOfLine maps a line tag to its replay bank.
func (s *Simulator) bankOfLine(line uint64) int {
	set := s.l2.setOf(line)
	if s.par.bankPow2 {
		return int(uint64(set) >> s.par.bankShift)
	}
	return int(uint64(set) * uint64(s.par.nbanks) / uint64(s.l2.sets))
}

// bucketShard partitions one SM's buffered accesses by bank with a stable
// counting sort: bankOrd[bankOff[b]:bankOff[b+1]] lists the buffer indices
// of bank b's accesses in buffer (= time) order. Runs on the shard's owning
// worker at the tail of its compute phase, so the serial portion of the
// barrier never sees it.
func (s *Simulator) bucketShard(sm int) {
	sh := &s.shards[sm]
	n := len(sh.acc)
	nb := s.par.nbanks
	if cap(sh.bankOff) < nb+1 {
		sh.bankOff = make([]int32, nb+1)
		sh.bankCur = make([]int32, nb)
	}
	sh.bankOff = sh.bankOff[:nb+1]
	sh.bankCur = sh.bankCur[:nb]
	if cap(sh.bankIdx) < n {
		sh.bankIdx = make([]int32, n)
		sh.bankOrd = make([]int32, n)
		sh.fill = make([]float64, n)
	}
	sh.bankIdx = sh.bankIdx[:n]
	sh.bankOrd = sh.bankOrd[:n]
	sh.fill = sh.fill[:n]

	off := sh.bankOff
	for b := range off {
		off[b] = 0
	}
	l2 := s.l2
	for i := range sh.acc {
		b := s.bankOfLine(l2.lineIndex(sh.acc[i].addr))
		sh.bankIdx[i] = int32(b)
		off[b+1]++
	}
	for b := 1; b <= nb; b++ {
		off[b] += off[b-1]
	}
	cur := sh.bankCur
	copy(cur, off[:nb])
	for i := range sh.bankIdx {
		b := sh.bankIdx[i]
		sh.bankOrd[cur[b]] = int32(i)
		cur[b]++
	}
}

// mergeEpoch is the barrier merge's dispatcher: the banked three-phase
// merge when merge workers are available and the epoch is big enough to
// pay for its bookkeeping, the serial loser-tree merge otherwise. Both are
// bit-identical, so the choice is invisible in results.
func (s *Simulator) mergeEpoch(k *kernelConsts, dramFree float64) float64 {
	p := s.par
	if p.wantBanked {
		total := 0
		for sm := range s.shards {
			total += len(s.shards[sm].acc)
		}
		if total >= mergeBankedMinAccesses {
			return s.mergeEpochBanked(k, dramFree, total)
		}
	}
	return s.mergeEpochSerial(k, dramFree)
}

// mergeEpochSerial merges the epoch's buffered accesses on the calling
// goroutine: replay against the shared L2 and global DRAM queue in
// (timestamp, SM-id) order through a loser tree, shadow-MSHR acquires and
// warp corrections inline, then the per-shard correction sweep. This is the
// old coordinator merge with the O(#shards)-per-access head-scan replaced
// by an O(log #shards) tournament — same order, same arithmetic, pinned
// bit-identical by the preserved-reference oracle in merge_test.go.
func (s *Simulator) mergeEpochSerial(k *kernelConsts, dramFree float64) float64 {
	p := s.par
	shards := s.shards
	heads := p.heads
	lt := &p.lt
	lt.ensure(len(shards))
	total := 0
	for sm := range shards {
		sh := &shards[sm]
		total += len(sh.acc)
		heads[sm] = 0
		if len(sh.acc) > 0 {
			lt.key[sm] = sh.acc[0].t
		} else {
			lt.key[sm] = math.Inf(1)
		}
	}
	if total > 0 {
		lt.build()
		misses := 0
		for n := total; n > 0; n-- {
			sm := int(lt.node[0])
			sh := &shards[sm]
			a := sh.acc[heads[sm]]
			heads[sm]++
			trueFill := k.l2Fill
			if !s.l2.Access(a.addr) {
				misses++
				queue := dramFree - a.t
				if queue < 0 {
					queue = 0
				}
				if dramFree < a.t {
					dramFree = a.t
				}
				dramFree += k.dramService
				trueFill = k.dramLat + queue
			}
			trueIssue := p.shadow[sm].acquire(a.t, trueFill, k.mshrCap)
			trueLat := (trueIssue - a.t) + trueFill
			sh.corr[a.slot] += k.depFrac * (trueLat - a.lat)
			if heads[sm] < len(sh.acc) {
				lt.key[sm] = sh.acc[heads[sm]].t
			} else {
				lt.key[sm] = math.Inf(1)
			}
			lt.update(int32(sm))
		}
		p.replayed += int64(total)
		p.misses += int64(misses)
	}
	for sm := range shards {
		s.applyShardCorrection(sm)
	}
	return dramFree
}

// mergeEpochBanked is the three-phase parallel merge. See the file comment
// for the phase structure and DESIGN.md §9 for the full determinism
// argument. total is the epoch's access count (the dispatcher already
// walked the shards).
func (s *Simulator) mergeEpochBanked(k *kernelConsts, dramFree float64, total int) float64 {
	p := s.par
	shards := s.shards
	nb := p.nbanks
	p.bankedEpochs++

	// Per-bank stamp bases: bank b's accesses take the contiguous stamp
	// range (stamp0+base[b], stamp0+base[b+1]] in merge order, exactly the
	// stamps the serial replay would hand the same accesses reordered by
	// bank — and within a set (⊆ one bank) the order is untouched, which is
	// the only order LRU can observe.
	base := p.bankBase
	for b := range base {
		base[b] = 0
	}
	for sm := range shards {
		sh := &shards[sm]
		if len(sh.acc) == 0 {
			continue
		}
		off := sh.bankOff
		for b := 0; b < nb; b++ {
			base[b+1] += int(off[b+1] - off[b])
		}
	}
	for b := 0; b < nb; b++ {
		base[b+1] += base[b]
	}
	p.stamp0 = s.l2.stamp

	// Phase 1: banked parallel replay.
	p.pool.RunLimited(nb, p.mw, p.fnBank)

	var hits, misses uint64
	for b := 0; b < nb; b++ {
		hits += p.bankHits[b]
		misses += p.bankMisses[b]
	}
	s.l2.Hits += hits
	s.l2.Misses += misses
	s.l2.stamp += uint64(total)
	p.replayed += int64(total)
	p.misses += int64(misses)

	// Phase 2: serial DRAM-queue fold over the miss stream.
	dramFree = s.foldMisses(k, dramFree, int(misses))

	// Phase 3: per-SM shadow-MSHR acquires and correction application.
	p.pool.RunLimited(len(shards), p.mw, p.fnCorrect)
	return dramFree
}

// replayBank replays one bank's accesses — a loser-tree merge over the
// per-SM bank sub-lists in (timestamp, SM-id) order — against the shared
// L2, recording each access's residency outcome: hits get their final fill
// latency written immediately; misses are flagged (bankIdx = -1) for the
// DRAM fold. Banks touch disjoint L2 sets and disjoint access indices, so
// any number of banks replay concurrently.
func (s *Simulator) replayBank(worker, b int) {
	p := s.par
	tot := p.bankBase[b+1] - p.bankBase[b]
	if tot == 0 {
		p.bankHits[b], p.bankMisses[b] = 0, 0
		return
	}
	shards := s.shards
	ws := &p.wscratch[worker]
	ws.sms = ws.sms[:0]
	ws.cur = ws.cur[:0]
	ws.end = ws.end[:0]
	for sm := range shards {
		sh := &shards[sm]
		if len(sh.acc) == 0 {
			continue
		}
		lo, hi := sh.bankOff[b], sh.bankOff[b+1]
		if lo == hi {
			continue
		}
		ws.sms = append(ws.sms, int32(sm))
		ws.cur = append(ws.cur, lo)
		ws.end = append(ws.end, hi)
	}
	lt := &ws.lt
	lt.ensure(len(ws.sms))
	for i, sm := range ws.sms {
		sh := &shards[sm]
		lt.key[i] = sh.acc[sh.bankOrd[ws.cur[i]]].t
	}
	lt.build()

	l2 := s.l2
	l2Fill := s.k.l2Fill
	stamp := p.stamp0 + uint64(p.bankBase[b])
	var hits, misses uint64
	for n := tot; n > 0; n-- {
		i := lt.node[0]
		sh := &shards[ws.sms[i]]
		ai := sh.bankOrd[ws.cur[i]]
		a := &sh.acc[ai]
		stamp++
		if l2.replayLine(l2.lineIndex(a.addr), stamp) {
			hits++
			sh.fill[ai] = l2Fill
		} else {
			misses++
			sh.bankIdx[ai] = -1
		}
		ws.cur[i]++
		if ws.cur[i] < ws.end[i] {
			lt.key[i] = sh.acc[sh.bankOrd[ws.cur[i]]].t
		} else {
			lt.key[i] = math.Inf(1)
		}
		lt.update(i)
	}
	p.bankHits[b] = hits
	p.bankMisses[b] = misses
}

// foldMisses advances the global DRAM bandwidth queue over the epoch's miss
// stream in (timestamp, SM-id) order — a loser-tree merge over the per-SM
// miss subsequences (flagged by phase 1) — writing each miss's true fill
// latency. The queue rule is exactly the serial merge's; restricting it to
// misses changes nothing because hits never touch the queue.
func (s *Simulator) foldMisses(k *kernelConsts, dramFree float64, misses int) float64 {
	p := s.par
	shards := s.shards
	heads := p.heads
	lt := &p.lt
	lt.ensure(len(shards))
	for sm := range shards {
		sh := &shards[sm]
		j := 0
		for j < len(sh.acc) && sh.bankIdx[j] >= 0 {
			j++
		}
		heads[sm] = j
		if j < len(sh.acc) {
			lt.key[sm] = sh.acc[j].t
		} else {
			lt.key[sm] = math.Inf(1)
		}
	}
	lt.build()
	dramLat, svc := k.dramLat, k.dramService
	for n := misses; n > 0; n-- {
		sm := int(lt.node[0])
		sh := &shards[sm]
		j := heads[sm]
		t := sh.acc[j].t
		queue := dramFree - t
		if queue < 0 {
			queue = 0
		}
		if dramFree < t {
			dramFree = t
		}
		dramFree += svc
		sh.fill[j] = dramLat + queue
		j++
		for j < len(sh.acc) && sh.bankIdx[j] >= 0 {
			j++
		}
		heads[sm] = j
		if j < len(sh.acc) {
			lt.key[sm] = sh.acc[j].t
		} else {
			lt.key[sm] = math.Inf(1)
		}
		lt.update(int32(sm))
	}
	return dramFree
}

// correctShard is phase 3 for one SM: replay the shard's accesses in buffer
// order through the shadow MSHR file with their true fills, accumulate the
// per-warp corrections, and apply them. Everything here is SM-private, and
// the global merge order restricted to one SM is its buffer order, so the
// acquire sequence and the float accumulation order are exactly the serial
// merge's.
func (s *Simulator) correctShard(sm int) {
	p := s.par
	sh := &s.shards[sm]
	if n := len(sh.acc); n > 0 {
		k := &s.k
		shadow := &p.shadow[sm]
		mshrCap := k.mshrCap
		depFrac := k.depFrac
		for i := 0; i < n; i++ {
			a := &sh.acc[i]
			trueFill := sh.fill[i]
			trueIssue := shadow.acquire(a.t, trueFill, mshrCap)
			trueLat := (trueIssue - a.t) + trueFill
			sh.corr[a.slot] += depFrac * (trueLat - a.lat)
		}
	}
	s.applyShardCorrection(sm)
}

// applyShardCorrection applies one shard's accumulated warp corrections and
// resets its merge state for the next epoch: swap the shadow MSHR file (it
// saw the true-fill acquire sequence) over the distorted in-epoch state,
// shift the held event and the queued events by their slots' summed
// corrections (clamped at zero, keeping the event-key domain non-negative),
// re-heapify if any key moved, zero the correction accumulators, and clear
// the access buffer and merge cursor. Phase 3 runs it per SM on the owning
// worker; the serial merge runs it as its per-shard tail.
func (s *Simulator) applyShardCorrection(sm int) {
	sh := &s.shards[sm]
	if len(sh.acc) > 0 {
		s.mshrs[sm].release, s.par.shadow[sm].release =
			s.par.shadow[sm].release, s.mshrs[sm].release
		if sh.hasHeld {
			sh.held.shift(sh.corr[sh.held.slot])
		}
		q := &sh.heap
		changed := false
		for i := range q.ev[:q.n] {
			if c := sh.corr[q.ev[i].slot]; c != 0 {
				q.ev[i].shift(c)
				changed = true
			}
		}
		if changed {
			q.heapify()
		}
		for i := range sh.corr {
			sh.corr[i] = 0
		}
	}
	sh.acc = sh.acc[:0]
	s.par.heads[sm] = 0
}

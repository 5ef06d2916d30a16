package gpu

import (
	"math"
)

// This file is the epoch barrier's merge: the reconciliation of every
// shard's buffered shared-L2 accesses against the one true L2 model and the
// global DRAM queue, plus the per-warp timing correction that feeds the
// repriced fills back into the shards. mergeEpochSerial does it on the
// coordinator goroutine: a k-way merge over the per-SM buffers in global
// (timestamp, SM-id) order through a loser tree (the linear-scan reference
// in merge_test.go pins it bit for bit).
//
// Access timestamps are finite by construction (epoch ends are finite and
// every time quantity derives from validated finite config values); the
// loser tree uses +Inf as its exhausted-stream sentinel and NaN keys would
// not order, so non-finite timestamps — impossible outside a deliberately
// poisoned config, which the exact engine mishandles equally — are outside
// the merge's contract.

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

// mergeEpochSerial merges the epoch's buffered accesses on the calling
// goroutine: replay against the shared L2 and global DRAM queue in
// (timestamp, SM-id) order through a loser tree, shadow-MSHR acquires and
// warp corrections inline, then the per-shard correction sweep. Same order
// and arithmetic as an O(#shards)-per-access head scan, at O(log #shards)
// per access — pinned bit-identical by the linear-scan oracle in
// merge_test.go.
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

// applyShardCorrection applies one shard's accumulated warp corrections and
// resets its merge state for the next epoch: swap the shadow MSHR file (it
// saw the true-fill acquire sequence) over the distorted in-epoch state,
// shift the held event and the queued events by their slots' summed
// corrections (clamped at zero, keeping the event-key domain non-negative),
// re-heapify if any key moved, zero the correction accumulators, and clear
// the access buffer and merge cursor.
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

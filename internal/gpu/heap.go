package gpu

import (
	"math"
	"math/bits"
)

// event is one resident warp's next scheduling event. The engine's whole
// ordering rule lives in this type: events execute in (ready cycle, warp
// launch id) order. key holds the IEEE-754 bits of the ready cycle — every
// event time is a non-negative, non-NaN float (Config.Validate rejects the
// timing constants that could produce anything else), and on that domain
// the unsigned order of the bits is the float order — and id is the warp's
// launch id, block*WarpsPerBlock + warp, unique per kernel and kept at full
// width. No two live events compare equal, so the order is strict and total:
// any correct priority queue pops the same sequence, and nothing about a
// queue's internal layout can leak into results. slot indexes the warp's
// stream in its SM's arena and takes no part in the order.
type event struct {
	key  uint64
	id   uint64
	slot int32
}

func (e *event) ready() float64     { return math.Float64frombits(e.key) }
func (e *event) setReady(r float64) { e.key = math.Float64bits(r) }

// shift moves the event's ready cycle by c, clamped at zero so keys stay in
// the non-negative domain the bit order needs.
func (e *event) shift(c float64) {
	r := e.ready() + c
	if r < 0 {
		r = 0
	}
	e.setReady(r)
}

// before reports whether a precedes b in the event order.
func (a *event) before(b *event) bool { return a.borrow(b) != 0 }

// borrow is before as a 0/1 word: (key, id) compared as one 128-bit number
// through a subtract-with-borrow chain, so a sift can add the outcome to a
// child index instead of branching on it — which child wins is a coin flip,
// and a branch there mispredicts about half the time.
func (a *event) borrow(b *event) uint64 {
	_, c := bits.Sub64(a.id, b.id, 0)
	_, c = bits.Sub64(a.key, b.key, c)
	return c
}

// lastEvent sorts after every real event: real keys are at most the +Inf
// bit pattern.
var lastEvent = event{key: math.MaxUint64, id: math.MaxUint64}

// warpHeap is one SM's event queue: a binary min-heap of events under
// event.before. ev always holds one element past the live heap,
// ev[n] == lastEvent, so a sift's right-child probe may read ev[j+1]
// unconditionally (the sentinel loses every comparison) and ev[0] is a valid
// "nothing precedes this" root when the queue is empty.
type warpHeap struct {
	ev []event
	n  int
}

// reset empties the queue, keeping capacity and restoring the sentinel.
func (q *warpHeap) reset() {
	q.ev = append(q.ev[:0], lastEvent)
	q.n = 0
}

// push inserts an event.
func (q *warpHeap) push(e event) {
	n := q.n
	q.ev = append(q.ev, lastEvent) // index n+1: the new sentinel
	ev := q.ev
	j := n
	for j > 0 {
		i := (j - 1) / 2
		if !e.before(&ev[i]) {
			break
		}
		ev[j] = ev[i]
		j = i
	}
	ev[j] = e
	q.n = n + 1
}

// pop removes and returns the earliest event; the queue must be non-empty.
func (q *warpHeap) pop() event {
	n := q.n - 1
	last := q.ev[n]
	q.ev[n] = lastEvent
	q.ev = q.ev[:n+1]
	q.n = n
	if n == 0 {
		return last
	}
	return q.replaceRoot(last)
}

// replaceRoot stores e in place of the root, restores the heap order, and
// returns the old root — pop-then-push in one sift, and the per-instruction
// operation of both engines (a warp that is no longer the earliest on its SM
// hands off to the one that is). The queue must be non-empty.
func (q *warpHeap) replaceRoot(e event) event {
	top := q.ev[0]
	q.siftDown(0, e)
	return top
}

// siftDown places e in the subtree rooted at hole i: earlier children shift
// up into the hole and e is stored once at its final position.
func (q *warpHeap) siftDown(i int, e event) {
	n := q.n
	ev := q.ev[:n+1]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		j += int(ev[j+1].borrow(&ev[j])) // sentinel makes the j+1 == n probe safe
		if !ev[j].before(&e) {
			break
		}
		ev[i] = ev[j]
		i = j
	}
	ev[i] = e
}

// heapify restores the heap order after keys were rewritten in place (the
// par engine's barrier correction shifts live keys): Floyd's bottom-up build.
func (q *warpHeap) heapify() {
	for i := q.n/2 - 1; i >= 0; i-- {
		q.siftDown(i, q.ev[i])
	}
}

package gpu

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// randomEvent draws an event whose ready cycle comes from a handful of
// values, so key ties — where only the id decides — are everywhere; ids are
// unique, as launch ids are.
func randomEvent(next func() uint64, id int) event {
	return event{key: math.Float64bits(float64(next() % 6)), id: uint64(id), slot: int32(id)}
}

// sentinelIntact reports whether the slice invariant holds: exactly one
// element past the live heap, and it is lastEvent.
func sentinelIntact(h *warpHeap) bool {
	return len(h.ev) == h.n+1 && h.ev[h.n] == lastEvent
}

// TestWarpHeapMatchesSort is the queue's whole contract as a property:
// under the strict total (ready, id) order, random interleavings of push,
// pop and replaceRoot must return exactly what a sorted model returns —
// each pop the model's minimum, so any drained run is strictly increasing
// and equal to a sort. Nothing about the internal layout is observable, so
// nothing about it is pinned.
func TestWarpHeapMatchesSort(t *testing.T) {
	check := func(seed uint64) bool {
		r := seed
		next := func() uint64 { r = r*6364136223846793005 + 1442695040888963407; return r }
		var h warpHeap
		h.reset()
		var model []event // kept sorted by (key, id)
		insert := func(e event) {
			i := sort.Search(len(model), func(i int) bool { return e.before(&model[i]) })
			model = append(model, event{})
			copy(model[i+1:], model[i:])
			model[i] = e
		}
		for op := 0; op < 400; op++ {
			e := randomEvent(next, op)
			switch c := next() % 4; {
			case c < 2 || h.n == 0:
				h.push(e)
				insert(e)
			case c == 2:
				if h.pop() != model[0] {
					return false
				}
				model = model[1:]
			default:
				if h.replaceRoot(e) != model[0] {
					return false
				}
				model = model[1:]
				insert(e)
			}
			if h.n != len(model) || !sentinelIntact(&h) || (h.n > 0 && h.ev[0] != model[0]) {
				return false
			}
		}
		prev := event{}
		for i := 0; h.n > 0; i++ {
			e := h.pop()
			if e != model[i] || (i > 0 && !prev.before(&e)) {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEventOrderMatchesFloatOrder pins the bit-domain comparison against
// the rule as written: on non-negative, non-NaN ready cycles (zero, tiny,
// huge, +Inf), before is exactly "ready lower, or equal and id lower".
func TestEventOrderMatchesFloatOrder(t *testing.T) {
	readies := []float64{0, math.SmallestNonzeroFloat64, 0.5, 1, 1 + 1e-15, 64, 1e18, math.MaxFloat64, math.Inf(1)}
	ids := []uint64{0, 1, 1 << 31, 1 << 32, 1<<63 - 1}
	for _, ra := range readies {
		for _, rb := range readies {
			for _, ia := range ids {
				for _, ib := range ids {
					a := event{key: math.Float64bits(ra), id: ia}
					b := event{key: math.Float64bits(rb), id: ib}
					want := ra < rb || (ra == rb && ia < ib)
					if got := a.before(&b); got != want {
						t.Fatalf("(%v,%d) before (%v,%d) = %v, want %v", ra, ia, rb, ib, got, want)
					}
					if a.before(&lastEvent) != true || lastEvent.before(&a) {
						t.Fatalf("(%v,%d) must sort before the sentinel", ra, ia)
					}
				}
			}
		}
	}
}

// TestWarpHeapReheapify is the property test for the barrier-time rebuild:
// after arbitrary in-place key shifts (clamped at zero, as the epoch
// barrier's correction pass does), heapify restores the heap order,
// preserves the event multiset exactly, keeps the sentinel intact, and
// drains in strictly increasing (ready, id) order.
func TestWarpHeapReheapify(t *testing.T) {
	check := func(seed uint64) bool {
		r := seed
		next := func() uint64 { r = r*6364136223846793005 + 1442695040888963407; return r }
		var h warpHeap
		h.reset()
		n := int(next()%64) + 1
		for i := 0; i < n; i++ {
			h.push(randomEvent(next, i))
		}
		want := make([]event, n)
		for i := range h.ev[:n] {
			h.ev[i].shift(float64(int64(next()%40)) - 20)
			want[i] = h.ev[i]
		}
		sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })

		h.heapify()
		if h.n != n || !sentinelIntact(&h) {
			return false
		}
		for i := 1; i < n; i++ {
			if h.ev[i].before(&h.ev[(i-1)/2]) {
				return false
			}
		}
		for i := range want {
			if h.pop() != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRunKernelSteadyStateAllocs pins the tentpole property: once the
// scratch arena has reached its high-water mark (first call), RunKernel
// performs no steady-state heap allocation. The budget of 2 leaves slack
// for incidental runtime allocations (e.g. stack growth) without letting a
// per-warp or per-instruction allocation regress unnoticed — any pooled
// object leaking back to per-call make/new shows up as tens to hundreds.
func TestRunKernelSteadyStateAllocs(t *testing.T) {
	sim := mustSim(t, Baseline())
	spec := goldenSpec(0.5, 0.5, 0.3, 1<<20, 2e8, 1)
	sim.RunKernel(spec) // reach the high-water mark
	avg := testing.AllocsPerRun(5, func() {
		sim.RunKernel(spec)
	})
	if avg > 2 {
		t.Fatalf("RunKernel steady state allocates %.1f objects per kernel, want <= 2", avg)
	}
}

// TestRunKernelAllocsAcrossSpecs ensures the arena absorbs spec-to-spec
// variation too: alternating between kernels of different shapes must not
// reintroduce per-kernel allocations once both shapes have been seen.
func TestRunKernelAllocsAcrossSpecs(t *testing.T) {
	sim := mustSim(t, Baseline())
	a := goldenSpec(0.5, 0.5, 0.3, 1<<20, 2e8, 1)
	b := goldenSpec(0.9, 0.2, 1.0, 2<<20, 1e8, 2)
	sim.RunKernel(a)
	sim.RunKernel(b)
	avg := testing.AllocsPerRun(3, func() {
		sim.RunKernel(a)
		sim.RunKernel(b)
	})
	if avg > 4 {
		t.Fatalf("alternating kernels allocate %.1f objects per pair, want <= 4", avg)
	}
}

package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestPoolStealingCoverage pins the Pool's round contract under -race:
// every index in [0, n) runs exactly once per round, across many
// back-to-back rounds on one pool (the reuse pattern the epoch loop
// depends on), for assorted pool sizes and unit counts — and with fewer
// units than workers only the first n workers take part, so per-worker
// scratch sized min(workers, n) is safe.
func TestPoolStealingCoverage(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers, nil)
		for _, n := range []int{0, 1, 2, 7, 16, 257} {
			for round := 0; round < 50; round++ {
				counts := make([]atomic.Int32, n)
				var badWorker atomic.Int32
				badWorker.Store(-1)
				p.Run(n, func(worker, i int) {
					if worker >= workers || worker >= n {
						badWorker.Store(int32(worker))
					}
					counts[i].Add(1)
				})
				if w := badWorker.Load(); w >= 0 {
					t.Fatalf("workers=%d n=%d: worker %d took part", workers, n, w)
				}
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Fatalf("workers=%d n=%d round=%d: index %d ran %d times", workers, n, round, i, got)
					}
				}
			}
		}
		p.Close()
	}
}

// TestPoolWorkerOwnership pins the ownership contract:
// within a round, each worker index is used by exactly one goroutine, so
// worker-indexed scratch needs no synchronization. Detected by racing
// unsynchronized per-worker counters under -race.
func TestPoolWorkerOwnership(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(4, nil)
	defer p.Close()
	scratch := make([]int, 4) // unsynchronized on purpose; -race is the assert
	for round := 0; round < 20; round++ {
		p.Run(128, func(worker, _ int) {
			scratch[worker]++
		})
	}
	total := 0
	for _, c := range scratch {
		total += c
	}
	if total != 20*128 {
		t.Fatalf("scratch total = %d, want %d", total, 20*128)
	}
}

// TestPoolWrap verifies the wrap hook runs each spawned worker's loop on a
// goroutine the caller controls (the pprof-label attachment point).
func TestPoolWrap(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	var wrapped atomic.Int32
	p := NewPool(4, func(worker int, loop func()) {
		if worker < 1 || worker > 3 {
			t.Errorf("wrap called with worker %d", worker)
		}
		wrapped.Add(1)
		loop()
	})
	defer p.Close()
	var ran atomic.Int32
	p.Run(64, func(_, _ int) { ran.Add(1) })
	if got := ran.Load(); got != 64 {
		t.Fatalf("ran %d units, want 64", got)
	}
	if got := wrapped.Load(); got != 3 {
		t.Fatalf("wrap invoked for %d workers, want 3", got)
	}
}

// TestPoolRunFirstUnitsRunTogether is TestForEachStealingFirstUnitsRunTogether
// for a Pool round: Run claims from the same cursor.
func TestPoolRunFirstUnitsRunTogether(t *testing.T) {
	p := NewPool(2, nil)
	defer p.Close()
	p.Run(4, firstUnitsTogether(t))
}

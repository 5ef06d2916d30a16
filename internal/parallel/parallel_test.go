package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != max {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, max)
	}
	if got := Workers(-3); got != max {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	// Oversubscription clamps to available processors: extra workers on a
	// CPU-bound deterministic pool only time-slice the same cores.
	if got := Workers(max + 5); got != max {
		t.Fatalf("Workers(max+5) = %d, want clamp to %d", got, max)
	}
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(prev + 2)
	defer runtime.GOMAXPROCS(prev)
	if got := Workers(prev + 1); got != prev+1 {
		t.Fatalf("Workers(%d) with GOMAXPROCS %d = %d", prev+1, prev+2, got)
	}
}

func TestForEachStealingCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		n := 57
		var counts [57]atomic.Int32
		ForEachStealing(n, workers, func(worker, i int) {
			if worker < 0 || worker >= workers {
				t.Errorf("workers=%d: worker index %d out of range", workers, worker)
			}
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachStealingZeroAndNegative(t *testing.T) {
	called := false
	ForEachStealing(0, 4, func(int, int) { called = true })
	ForEachStealing(-5, 4, func(int, int) { called = true })
	if called {
		t.Fatal("fn called for empty index space")
	}
}

// TestForEachStealingOwnsIndexExclusively pins the worker-resource
// contract: a worker index is owned by one goroutine at a time, so
// per-worker state may be mutated without synchronization. The
// unsynchronized counters here are the proof obligation — the race detector
// (CI runs this package under -race) flags any violation of the exclusivity
// guarantee.
func TestForEachStealingOwnsIndexExclusively(t *testing.T) {
	const n, workers = 500, 4
	perWorker := make([]int, workers)
	ForEachStealing(n, workers, func(worker, i int) {
		perWorker[worker]++ // deliberately not atomic
	})
	total := 0
	for _, c := range perWorker {
		total += c
	}
	if total != n {
		t.Fatalf("worker-owned counters sum to %d, want %d", total, n)
	}
}

func TestForEachStealingSerialPathIsOrdered(t *testing.T) {
	var order []int
	ForEachStealing(5, 1, func(worker, i int) {
		if worker != 0 {
			t.Fatalf("serial path used worker %d", worker)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path order %v", order)
		}
	}
}

func TestMapStealingDeterministicAcrossWorkerCounts(t *testing.T) {
	n := 101
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := MapStealing(n, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], i*i)
			}
		}
	}
}

func TestMapStealingReportsLowestIndexedError(t *testing.T) {
	failAt := map[int]bool{3: true, 7: true, 11: true}
	for _, workers := range []int{1, 2, 8} {
		ran := make([]atomic.Bool, 16)
		out, err := MapStealing(16, workers, func(i int) (int, error) {
			ran[i].Store(true)
			if failAt[i] {
				return 0, fmt.Errorf("unit %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "unit 3 failed" {
			t.Fatalf("workers=%d: err = %v, want lowest-indexed failure", workers, err)
		}
		// Errors must not cancel outstanding units, and the units that
		// returned a nil error pass their results through beside the failure.
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: unit %d skipped after error", workers, i)
			}
		}
		if len(out) != 16 {
			t.Fatalf("workers=%d: partial results length %d", workers, len(out))
		}
		for i, v := range out {
			if !failAt[i] && v != i {
				t.Fatalf("workers=%d: out[%d] = %d beside an error, want %d", workers, i, v, i)
			}
		}
	}
}

// TestForEachStealingStarvation pins the rebalancing guarantee: when one
// worker is stuck on a single expensive unit, the other workers must drain
// every other unit. The unit that claims index 0 blocks until every OTHER
// unit has completed — if the stuck worker still held units it had not
// started, those units could never complete and the test would time out
// instead of finishing.
func TestForEachStealingStarvation(t *testing.T) {
	const n, workers = 64, 4
	var done atomic.Int32
	rest := make(chan struct{})
	byWorker := make([][]int32, workers)
	for w := range byWorker {
		byWorker[w] = make([]int32, n)
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ForEachStealing(n, workers, func(worker, i int) {
			byWorker[worker][i] = 1
			if i == 0 {
				select {
				case <-rest:
				case <-time.After(30 * time.Second):
					t.Error("unit 0 starved: other workers never drained the rest")
				}
				return
			}
			if done.Add(1) == n-1 {
				close(rest)
			}
		})
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("ForEachStealing deadlocked under a pinned-slow worker")
	}
	// Unit 0 is the first claim of all, so the worker that took it claimed
	// nothing before it, and nothing after it until every other unit was
	// done: it ran unit 0 alone.
	for w := range byWorker {
		if byWorker[w][0] != 1 {
			continue
		}
		for i := 1; i < n; i++ {
			if byWorker[w][i] == 1 {
				t.Fatalf("worker %d held unit 0 and also ran unit %d", w, i)
			}
		}
	}
}

// firstUnitsTogether returns a unit body for n = 4 over 2 workers in which
// units 0 and 1 each wait, up to 10 s, for the other to have started: it
// completes only if the two lowest units are claimed first, by different
// workers, as the shared cursor hands them out. A scheduler that gives each
// worker a contiguous shard parks worker 1 on unit 2, so unit 1 never starts.
func firstUnitsTogether(t *testing.T) func(worker, i int) {
	var started sync.WaitGroup
	started.Add(2)
	return func(_, i int) {
		if i < 2 {
			started.Done()
		}
		ok := make(chan struct{})
		go func() {
			started.Wait()
			close(ok)
		}()
		select {
		case <-ok:
		case <-time.After(10 * time.Second):
			t.Errorf("unit %d: units 0 and 1 never ran together", i)
		}
	}
}

func TestForEachStealingFirstUnitsRunTogether(t *testing.T) {
	ForEachStealing(4, 2, firstUnitsTogether(t))
}

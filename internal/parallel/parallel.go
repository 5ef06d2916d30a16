// Package parallel is the deterministic worker-pool substrate shared by the
// simulation pipeline (per-segment kernel simulation), the experiment
// runners (per-workload fan-out), and ROOT's clustering (per-kernel-name
// fan-out).
//
// Design contract: parallelism must never change results. Callers therefore
// (a) decompose work into units whose outputs depend only on the unit index
// — never on scheduling order or worker identity — and (b) collect results
// by unit index, not completion order. Every unit owns its resources
// (simulator instance, RNG stream derived from the unit's own seed); nothing
// is shared between concurrently running units. Under that contract the
// output of every scheduler here is bit-identical for every worker count,
// including the serial workers == 1 path, which is exercised by the
// determinism regression tests in pipeline, experiments, and the root
// package.
//
// Two schedulers implement the contract, differing only in how unit indices
// reach workers — never in which units run or what they may observe:
//
//   - ForEach / ForEachWorker / Map claim indices one at a time from a
//     single atomic counter. Ideal load balance, no locality: consecutive
//     indices land on arbitrary workers.
//   - ForEachStealing / MapStealing split the index space into one
//     contiguous shard per worker; each worker drains its own shard in
//     ascending order and steals the upper half of the richest victim's
//     remainder when it runs dry. Owners therefore sweep long ascending
//     index runs (warm per-worker state stays hot, see gpu.RunSegmentedEngine)
//     while skew and stragglers are still rebalanced.
//
// Errors do not cancel outstanding units: all n units always run, and
// Map/MapStealing report the error of the lowest-indexed failing unit. This
// keeps the reported error — not just the data — independent of the worker
// count. Work units in this codebase are short (one kernel segment, one
// workload), so the cost of finishing a doomed batch is negligible compared
// to nondeterministic error reporting.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0) (one worker per available CPU), and values above it
// are capped there. Callers pass user-facing "-j" values through this so
// that 0 means "use the machine" everywhere.
//
// The cap is a scheduling policy, not a semantic one: every pool in this
// codebase is CPU-bound and — by the package contract — produces output
// independent of the worker count, so workers beyond available processors
// cannot increase throughput. They can only time-slice the same cores,
// interleaving working sets that would otherwise stay cache-resident
// (measured before the cap: FullSim/j4 ran 14% slower than j1 on a 1-core
// container purely from that interleave — BENCH_PR5.json). Tests that need
// true goroutine concurrency regardless of the machine bypass Workers and
// pass explicit counts to ForEach*/MapStealing, which never clamp, or raise
// runtime.GOMAXPROCS first as the determinism tests do.
func Workers(n int) int {
	max := runtime.GOMAXPROCS(0)
	if n <= 0 || n > max {
		return max
	}
	return n
}

// ForEach invokes fn(i) for every i in [0, n), spread over the given number
// of workers. Indices are claimed from an atomic counter, so the assignment
// of index to worker is nondeterministic — fn's output must depend only on
// i. With workers <= 1 (or n <= 1) the loop runs serially in index order on
// the calling goroutine; fn must be safe for concurrent invocation on
// distinct indices whenever workers > 1.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachWorker is ForEach with the worker's pool index passed alongside
// the unit index: fn(worker, i), worker in [0, Workers(workers)). Each
// worker index is owned by exactly one goroutine for the duration of the
// call, so fn may keep worker-indexed resources (a simulator, a scratch
// arena) in a slice without synchronization and reuse them across the units
// that worker happens to claim. The determinism contract is unchanged — and
// sharpened: because unit-to-worker assignment is nondeterministic, fn's
// OUTPUT must not depend on which worker ran it, only on i; worker-owned
// resources must therefore be reset to an equivalent-to-fresh state between
// units (see gpu.Simulator.Reset for the canonical example). The serial
// workers <= 1 path runs everything as worker 0 in index order.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// stealShard is one worker's claimable slice [next, end) of the unit-index
// space. The owner claims from the front (ascending i); thieves detach the
// upper half of the remainder. A mutex per shard — rather than a lock-free
// deque — is deliberate: units scheduled through ForEachStealing are coarse
// (a replay segment is milliseconds, a workload fan-out unit far more), so
// an uncontended ~20ns lock per claim is noise, and the mutex keeps the
// owner/thief interaction trivially race-free under every interleaving.
type stealShard struct {
	mu        sync.Mutex
	next, end int
}

// claim takes the shard's lowest unclaimed index, if any.
func (s *stealShard) claim() (int, bool) {
	s.mu.Lock()
	if s.next >= s.end {
		s.mu.Unlock()
		return 0, false
	}
	i := s.next
	s.next++
	s.mu.Unlock()
	return i, true
}

// remaining reports how many unclaimed indices the shard holds.
func (s *stealShard) remaining() int {
	s.mu.Lock()
	r := s.end - s.next
	s.mu.Unlock()
	return r
}

// ForEachStealing invokes fn(worker, i) for every i in [0, n) over the given
// number of workers using work stealing: the index space is split into one
// contiguous shard per worker, each worker drains its own shard in ascending
// index order, and a worker whose shard is empty steals the upper half
// (rounded up, so even a single leftover unit is stealable) of the richest
// victim's remainder. Compared to ForEachWorker's atomic counter this keeps
// each worker on long ascending runs of consecutive indices — so
// worker-owned warm state (a reused Simulator, a spec scratch slot) services
// runs with locality — while still rebalancing adversarially skewed unit
// costs: a worker stuck on one expensive unit has its whole remaining shard
// drained by the others (TestForEachStealingStarvation pins this).
//
// The ownership and determinism contract is exactly ForEachWorker's: each
// worker index is owned by one goroutine for the duration of the call, so
// fn may keep worker-indexed resources in a slice without synchronization;
// unit-to-worker assignment is nondeterministic, so fn's OUTPUT must depend
// only on i, and worker-owned resources must be reset to an
// equivalent-to-fresh state between units. Every index runs exactly once.
// The serial workers <= 1 path runs everything as worker 0 in index order.
func ForEachStealing(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	shards := make([]stealShard, workers)
	for w := range shards {
		shards[w].next = w * n / workers
		shards[w].end = (w + 1) * n / workers
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			self := &shards[w]
			for {
				if i, ok := self.claim(); ok {
					fn(w, i)
					continue
				}
				if !stealInto(shards, w) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// stealInto moves the upper half of the richest victim's remaining range
// into worker w's shard, returning false when no victim has work. A thief
// may observe all shards empty while another thief still holds a
// just-stolen range it has not yet published to its own shard; the early
// retirement that causes is harmless — the range is owned and will be
// processed by its holder — and only costs a sliver of tail parallelism.
func stealInto(shards []stealShard, w int) bool {
	for {
		best, bestRem := -1, 0
		for v := range shards {
			if v == w {
				continue
			}
			if rem := shards[v].remaining(); rem > bestRem {
				best, bestRem = v, rem
			}
		}
		if best < 0 {
			return false
		}
		victim := &shards[best]
		victim.mu.Lock()
		rem := victim.end - victim.next
		if rem <= 0 {
			victim.mu.Unlock()
			continue // lost a race for the victim's work; rescan
		}
		take := rem - rem/2
		lo := victim.end - take
		victim.end = lo
		victim.mu.Unlock()
		self := &shards[w]
		self.mu.Lock()
		self.next, self.end = lo, lo+take
		self.mu.Unlock()
		return true
	}
}

// MapStealing is Map scheduled through ForEachStealing: results indexed by
// i, every unit always runs, and the error of the lowest-indexed failing
// unit is reported — the same worker-count-independent error contract as
// Map. Use it where units are coarse and skewed (workload fan-out: one
// HuggingFace workload costs many Rodinia ones) so stragglers are
// rebalanced instead of serializing the tail.
func MapStealing[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	ForEachStealing(n, workers, func(_, i int) {
		results[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Map runs fn(i) for every i in [0, n) over the given number of workers and
// returns the results indexed by i. If any calls fail, every unit still
// runs, and the error of the lowest-indexed failing call is returned
// (with a complete results slice, so callers can inspect partial output).
// fn must be safe for concurrent invocation on distinct indices whenever
// workers > 1.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	ForEach(n, workers, func(i int) {
		results[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

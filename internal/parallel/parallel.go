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
// One scheduler implements the contract: ForEachStealing / MapStealing (and
// Pool, its persistent form) split the index space into one contiguous shard
// per worker; each worker drains its own shard in ascending order and steals
// the upper half of the richest victim's remainder when it runs dry. Owners
// therefore sweep long ascending index runs (warm per-worker state stays
// hot, see gpu.RunSegmentedEngine) while skew and stragglers are still
// rebalanced.
//
// Errors do not cancel outstanding units: all n units always run, and
// MapStealing reports the error of the lowest-indexed failing unit. This
// keeps the reported error — not just the data — independent of the worker
// count. Work units in this codebase are short (one kernel segment, one
// workload), so the cost of finishing a doomed batch is negligible compared
// to nondeterministic error reporting.
package parallel

import (
	"runtime"
	"sync"
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
// container purely from that interleave). Tests that need true goroutine
// concurrency regardless of the machine bypass Workers and pass explicit
// counts to ForEachStealing/MapStealing, which never clamp, or raise
// runtime.GOMAXPROCS first as the determinism tests do.
func Workers(n int) int {
	max := runtime.GOMAXPROCS(0)
	if n <= 0 || n > max {
		return max
	}
	return n
}

// PushIdle appends x to an idle list of at most max items, dropping the
// oldest: the discipline of every list that keeps worker-owned scratch (a
// simulator, a run's buffers, a clustering arena) between calls. The caller
// holds the list's lock and pops from the end, so what is reused depends
// only on the sequence of calls — a sync.Pool empties on the collector's
// schedule, which made memory metrics differ from run to run.
func PushIdle[T any](list []T, x T, max int) []T {
	if len(list) == max {
		copy(list, list[1:])
		list = list[:max-1]
	}
	return append(list, x)
}

// PopIdle removes and returns the most recently pushed item of an idle list,
// or the zero value when the list is empty. The caller holds the list's lock.
func PopIdle[T any](list []T) ([]T, T) {
	var x T
	last := len(list) - 1
	if last < 0 {
		return list, x
	}
	x, list[last] = list[last], x
	return list[:last], x
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
// victim's remainder. This keeps each worker on long ascending runs of
// consecutive indices — so worker-owned warm state (a reused Simulator, a
// spec scratch slot) services runs with locality — while still rebalancing
// adversarially skewed unit costs: a worker stuck on one expensive unit has
// its whole remaining shard drained by the others
// (TestForEachStealingStarvation pins this).
//
// Ownership and determinism: each worker index is owned by one goroutine for
// the duration of the call, so fn may keep worker-indexed resources (a
// simulator, a scratch arena) in a slice without synchronization;
// unit-to-worker assignment is nondeterministic, so fn's OUTPUT must depend
// only on i, and worker-owned resources must be reset to an
// equivalent-to-fresh state between units (see gpu.Simulator.Reset for the
// canonical example). Every index runs exactly once.
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
	splitShards(shards, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			drain(shards, w, fn)
		}(w)
	}
	wg.Wait()
}

// splitShards hands each shard its contiguous share of [0, n).
func splitShards(shards []stealShard, n int) {
	for w := range shards {
		shards[w].next = w * n / len(shards)
		shards[w].end = (w + 1) * n / len(shards)
	}
}

// drain is worker w's whole round, for ForEachStealing and Pool alike: run
// the units of its own shard in ascending order, refill by stealing, and
// return once no shard has work left.
func drain(shards []stealShard, w int, fn func(worker, i int)) {
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

// MapStealing runs fn(i) for every i in [0, n) through ForEachStealing and
// returns the results indexed by i. Every unit always runs, and the error of
// the lowest-indexed failing unit is reported (with a complete results
// slice, so callers can inspect partial output) — an error contract
// independent of the worker count. Units may be coarse and skewed (workload
// fan-out: one HuggingFace workload costs many Rodinia ones); stragglers are
// rebalanced instead of serializing the tail. fn must be safe for concurrent
// invocation on distinct indices whenever workers > 1.
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

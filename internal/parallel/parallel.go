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
// One rule schedules every fan-out: ForEachStealing / MapStealing (and Pool,
// its persistent form) hand out a call's units from one shared atomic
// cursor, in ascending index order, to whichever worker is free. Skew and
// stragglers therefore need no rebalancing step: a slow unit delays only the
// worker running it. ("Stealing" in the names is historical.)
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

// ForEachStealing invokes fn(worker, i) for every i in [0, n) over the given
// number of workers. Units are claimed one at a time from a shared cursor in
// ascending index order by whichever worker is free, so skewed unit costs
// balance themselves: a worker stuck on one expensive unit holds only that
// unit while the others drain the rest (TestForEachStealingStarvation), and
// the lowest unclaimed units always run next
// (TestForEachStealingFirstUnitsRunTogether).
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
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// The caller only waits. Were it worker 0, the goroutine it spawned last
	// would sit in its processor's run-next slot, which idle processors steal
	// only after a back-off; parking the caller runs that goroutine at once.
	// On two vCPUs, generating the 17 DSE workloads took 7 % longer the other
	// way.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			drain(&next, n, w, fn)
		}(w)
	}
	wg.Wait()
}

// drain is worker w's whole round, for ForEachStealing and Pool alike: claim
// the next unit from the shared cursor and run it until the cursor passes n.
// A claim is one atomic add, and each index is handed out exactly once.
func drain(next *atomic.Int64, n, w int, fn func(worker, i int)) {
	for {
		i := int(next.Add(1) - 1)
		if i >= n {
			return
		}
		fn(w, i)
	}
}

// MapStealing runs fn(i) for every i in [0, n) through ForEachStealing and
// returns the results indexed by i. Every unit always runs, and the error of
// the lowest-indexed failing unit is reported (with a complete results
// slice, so callers can inspect partial output) — an error contract
// independent of the worker count. Units may be coarse and skewed (workload
// fan-out: one HuggingFace workload costs many Rodinia ones); the cursor
// keeps every free worker busy until the last unit is claimed. fn must be
// safe for concurrent invocation on distinct indices whenever workers > 1.
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

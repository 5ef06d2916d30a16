package parallel

import "sync/atomic"

// Pool is a persistent, barrier-synchronized worker pool for
// reduction-shaped fan-out: the same small index space dispatched over the
// same goroutines many times in a row, with a full barrier between rounds.
// ForEachStealing spawns and joins one goroutine per worker per call, which
// is fine for coarse units (a replay segment, a workload) but far too heavy
// for the intra-kernel engine's epoch loop, where one fan-out per epoch
// over ~16 units would mean a spawn and join per worker thousands of times
// per kernel. A Pool spawns its workers once; each Run round costs two channel
// operations per worker plus one atomic add per unit.
//
// Scheduling within a round is ForEachStealing's, by the same drain: the
// participating workers claim units in ascending index order from the pool's
// cursor, which Run resets to zero at the start of every round. The
// determinism contract is also ForEachStealing's — fn's output must depend
// only on the unit index, never on worker identity or scheduling order — and
// so is the ownership contract: each worker index is owned by exactly one
// goroutine for the duration of a round, so fn may keep worker-indexed
// scratch in a slice without synchronization.
//
// The calling goroutine participates as worker 0 in every round, so a Pool
// of one worker runs everything inline with no channel traffic at all —
// Run(n, fn) is then a plain loop, preserving callers'
// allocation-free serial paths. Rounds are issued one at a time from the
// owning goroutine; Run must not be called concurrently with itself or
// re-entered from fn.
type Pool struct {
	workers int
	next    atomic.Int64 // the round's cursor: the lowest unclaimed unit
	// Per-round state, published to workers by the start sends and read
	// back by the coordinator after the done receives (channel
	// happens-before makes both directions race-free).
	fn    func(worker, i int)
	n     int
	start []chan struct{}
	done  chan struct{}
}

// NewPool creates a pool of the given size. Workers 1..workers-1 are spawned
// immediately and park between rounds; the caller's goroutine is worker 0.
// wrap, when non-nil, is invoked on each spawned goroutine with its worker
// index and the loop to run — callers use it to attach pprof labels. Close
// must be called to release the goroutines.
func NewPool(workers int, wrap func(worker int, loop func())) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.start = make([]chan struct{}, workers-1)
		p.done = make(chan struct{}, workers-1)
		for w := 1; w < workers; w++ {
			p.start[w-1] = make(chan struct{}, 1)
			loop := p.workerLoop(w, p.start[w-1])
			if wrap != nil {
				go wrap(w, loop)
			} else {
				go loop()
			}
		}
	}
	return p
}

// Run dispatches fn(worker, i) for every i in [0, n) across the pool and
// returns after all units have completed (a full barrier). The calling
// goroutine participates as worker 0; with fewer units than workers only
// the first n workers take part. One worker (or n <= 1) runs inline on the
// caller with no synchronization.
func (p *Pool) Run(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	active := p.workers
	if active > n {
		active = n
	}
	if active <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.fn, p.n = fn, n
	p.next.Store(0)
	for w := 1; w < active; w++ {
		p.start[w-1] <- struct{}{}
	}
	drain(&p.next, n, 0, fn)
	for w := 1; w < active; w++ {
		<-p.done
	}
	p.fn = nil
}

// workerLoop closes over its start channel rather than indexing p.start so
// that a Close racing a just-spawned goroutine (which nils p.start) cannot
// fault before the goroutine's first park.
func (p *Pool) workerLoop(w int, start chan struct{}) func() {
	return func() {
		for range start {
			drain(&p.next, p.n, w, p.fn)
			p.done <- struct{}{}
		}
	}
}

// Close releases the pool's goroutines. The pool must be idle (no Run in
// flight); after Close, Run panics.
func (p *Pool) Close() {
	for _, c := range p.start {
		close(c)
	}
	p.start = nil
}

package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"stemroot/internal/rng"
	"stemroot/internal/stats"
)

// Seed-derivation labels: per-name reservoir RNGs are split, in first-seen
// order, from the first; a streaming plan's draws come from the second, and
// a batch plan's from the third.
const (
	seedLabelReservoir = 0x57e4
	seedLabelDraw      = 0xd4aa
	seedLabelBatchDraw = 0x5a3f1e
)

// StreamOptions tunes the IncrementalPlanner.
type StreamOptions struct {
	// ReservoirCap bounds the per-kernel-name time sample used for
	// clustering; 0 means 8192, and a negative cap is ErrReservoirCap.
	// Peak memory is independent of trace length: O(#names × ReservoirCap)
	// for the reservoirs, plus O(ReservoirCap) re-plan scratch per worker,
	// plus the plan.
	ReservoirCap int
}

// ErrReservoirCap is what NewIncrementalPlanner returns for a negative
// StreamOptions.ReservoirCap: only 0 selects the default.
var ErrReservoirCap = errors.New("core: ReservoirCap must be >= 0 (0 means 8192)")

// The re-plan schedule: a cached plan is re-derived once the invocation
// count has grown by replanGrowth since the last re-plan (the doubling
// schedule), or early, once any kernel's exact running mean has moved by
// more than driftTol of its value at the last re-plan.
const (
	replanGrowth = 2
	driftTol     = 0.25
)

// reservoirCap resolves the default.
func (o StreamOptions) reservoirCap() int {
	if o.ReservoirCap == 0 {
		return 8192
	}
	return o.ReservoirCap
}

// validTime reports whether t can enter a plan: a NaN makes the predicted
// error NaN and a +Inf makes it 0, neither of which is a bound, and the
// error model has no meaning for negative durations.
func validTime(t float64) bool { return t >= 0 && !math.IsInf(t, 1) }

func invalidTimeError(t float64, invocation int) error {
	return fmt.Errorf("core: time %v at invocation %d is not a finite non-negative number", t, invocation)
}

// splitReservoir is ROOT over a copy of one kernel's reservoir times, in
// slot order — stream order for an in-reservoir kernel — into the kernel's
// own leaf list, which grows with its leaf count alone, whichever worker
// claims it. The copy is reused for the worker's next name, so a leaf keeps
// its statistics and its upper bound, not its slots; phase 3 regroups them
// (groupSlots).
func (a *splitArena) splitReservoir(name string, st *incNameState, p Params) {
	vals := st.res.appendTimes(a.resVal[:0])
	idxs := a.resIdx[:len(vals)]
	for i := range idxs {
		idxs[i] = i
	}
	st.leaves = a.splitGroup(name, vals, idxs, p, st.leaves[:0])
	for i := range st.leaves {
		st.leaves[i].Indices = nil
	}
}

// reserve sizes a's copy of a reservoir, and its partition buffers, for n
// slots.
func (a *splitArena) reserve(n int) {
	if cap(a.resIdx) < n {
		a.resVal = make([]float64, 0, n)
		a.resIdx = make([]int, n)
		a.grow(n)
	}
}

// leafOf returns which of one name's leaves holds the time v: the first
// whose upper bound reaches it, the last if none does.
func leafOf(leaves []Cluster, v float64) int {
	return sort.Search(len(leaves)-1, func(j int) bool { return v <= leaves[j].upper })
}

// pairReservoir keeps a uniform sample of (value, stream position) pairs
// (Vitter's algorithm R): one Intn per observation once full. Its slots live
// in blocks of 64, 64, 128, 256, … slots, each twice the one before from the
// third on and the last cut at the cap; slot j is in block
// bits.Len(j/blockSlots). A block is allocated when its first slot is
// filled and is never copied, so a name seen n < cap times holds at most
// max(64, 2n) slots, and exactly cap once full.
type pairReservoir struct {
	cap    int
	seen   int
	blocks []pairBlock
	r      *rng.Rand
}

// pairBlock is one allocation of reservoir slots: times and their stream
// positions, filled by append up to the capacity it was made with.
type pairBlock struct {
	vals []float64
	pos  []int
}

// blockSlots is the size of the first two blocks.
const blockSlots = 64

// blockOf returns the block holding slot j and j's offset in it.
func blockOf(j int) (b, off int) {
	b = bits.Len(uint(j / blockSlots))
	if b > 0 {
		j -= blockSlots << (b - 1) // where block b starts
	}
	return b, j
}

func (rv *pairReservoir) add(v float64, position int) {
	rv.seen++
	if rv.seen <= rv.cap {
		k := len(rv.blocks) - 1
		if k < 0 || len(rv.blocks[k].vals) == cap(rv.blocks[k].vals) {
			rv.grow()
			k++
		}
		tail := &rv.blocks[k]
		tail.vals = append(tail.vals, v)
		tail.pos = append(tail.pos, position)
		return
	}
	if j := rv.r.Intn(rv.seen); j < rv.cap {
		b, off := blockOf(j)
		rv.blocks[b].vals[off] = v
		rv.blocks[b].pos[off] = position
	}
}

// grow opens the next block, as large as the blocks before it together
// (64 for the first) and cut at the cap. The first call also sizes the block
// list for every block up to the cap, so that list is allocated once too.
func (rv *pairReservoir) grow() {
	if rv.blocks == nil {
		last, _ := blockOf(rv.cap - 1)
		rv.blocks = make([]pairBlock, 0, last+1)
	}
	filled := rv.seen - 1 // add has counted the pair it is about to store
	n := min(max(filled, blockSlots), rv.cap-filled)
	rv.blocks = append(rv.blocks, pairBlock{make([]float64, 0, n), make([]int, 0, n)})
}

// filled returns the number of filled slots.
func (rv *pairReservoir) filled() int { return min(rv.seen, rv.cap) }

// at returns the time and stream position in slot j.
func (rv *pairReservoir) at(j int) (float64, int) {
	b, off := blockOf(j)
	return rv.blocks[b].vals[off], rv.blocks[b].pos[off]
}

// appendTimes appends the reservoir's times to dst in slot order.
func (rv *pairReservoir) appendTimes(dst []float64) []float64 {
	for _, b := range rv.blocks {
		dst = append(dst, b.vals...)
	}
	return dst
}

// incNameState is the per-kernel-name state of the incremental planner.
type incNameState struct {
	res        pairReservoir
	exact      stats.Online // exact Welford moments over every invocation
	meanAtPlan float64      // running mean at the last re-plan (drift trigger)
	leaves     []Cluster    // its ROOT leaves at the last re-plan
}

// IncrementalPlanner maintains a STEM+ROOT sampling plan over a profile
// stream in ONE pass and bounded memory: per kernel name it keeps a uniform
// reservoir of (time, position) pairs plus exact Welford statistics, and
// re-derives the ROOT plan with amortized re-clustering — on a doubling
// schedule (replanGrowth), on per-kernel mean drift (driftTol), or on
// demand.
//
// Cluster statistics are exact for every kernel whose full population fits
// its reservoir; over-capacity kernels get reservoir-estimated statistics
// apportioned to the exact per-name count and calibrated so Σ N_c·μ_c
// equals the kernel's exact total time, which keeps the PredictedError
// within ε/4 of the exact statistics' (pinned by test) without a second
// scan.
//
// A re-plan is the batch planner's derivation (derive) over the
// reservoirs: ROOT per name, fanned out over Params.Workers as a batch plan
// is, one joint sizing pass and one draw loop. Peak memory is independent of
// trace length: O(#names × ReservoirCap) for the reservoirs, O(ReservoirCap)
// of re-plan scratch per worker plus O(#clusters), all owned by the planner
// and reused, and the derived plan itself (#clusters entries plus one array
// of their drawn samples). A re-plan allocates the plan it returns and
// nothing that grows with the reservoirs (TestIncrementalPlanScratchBounded),
// and the steady-state Add path performs zero heap allocations
// (AllocsPerRun-pinned).
//
// An IncrementalPlanner must be confined to a single goroutine.
type IncrementalPlanner struct {
	p    Params
	opts StreamOptions

	seedGen *rng.Rand
	states  map[string]*incNameState
	order   []string // first-seen order (reservoir RNG derivation order)

	count  int     // invocations ingested
	total  float64 // Kahan-summed total time
	totalC float64 // Kahan compensation
	bad    error   // first rejected time; sticks, and fails every later plan

	plan        *Plan // cached plan; re-derived on the amortized schedule
	planAt      int   // invocation count at the last re-plan
	planNames   int   // distinct names at the last re-plan
	replanCount int   // re-derivations performed (observability)

	lastEstimate    float64 // plan-based extrapolation of the total time
	lastSampledTime float64 // Σ time over the plan's distinct samples

	arena *splitArena // the derivation's scratch, reused across re-plans
}

// NewIncrementalPlanner validates p and returns an empty planner.
func NewIncrementalPlanner(p Params, opts StreamOptions) (*IncrementalPlanner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.ReservoirCap < 0 {
		return nil, ErrReservoirCap
	}
	return &IncrementalPlanner{
		p:       p,
		opts:    opts,
		seedGen: rng.New(rng.Derive(p.Seed, seedLabelReservoir)),
		states:  make(map[string]*incNameState),
		arena:   newArena(),
	}, nil
}

// Add ingests one invocation. The stream position is implicit (the current
// invocation count), matching the index space Plan's samples refer to.
func (ip *IncrementalPlanner) Add(name string, timeUS float64) {
	st := ip.states[name]
	if st == nil {
		st = ip.newState()
		ip.states[name] = st
		ip.order = append(ip.order, name)
	}
	ip.ingest(st, timeUS)
}

// AddBytes is Add for a []byte kernel name: the byte-keyed symbol-table
// lookup does not allocate, and the name is only copied to a string the
// first time it is seen — the zero-alloc ingest hot path.
func (ip *IncrementalPlanner) AddBytes(name []byte, timeUS float64) {
	st := ip.states[string(name)] // compiler-recognized non-allocating lookup
	if st == nil {
		interned := string(name)
		st = ip.newState()
		ip.states[interned] = st
		ip.order = append(ip.order, interned)
	}
	ip.ingest(st, timeUS)
}

func (ip *IncrementalPlanner) newState() *incNameState {
	return &incNameState{res: pairReservoir{cap: ip.opts.reservoirCap(), r: ip.seedGen.Split()}}
}

func (ip *IncrementalPlanner) ingest(st *incNameState, t float64) {
	if !validTime(t) && ip.bad == nil {
		ip.bad = invalidTimeError(t, ip.count)
	}
	st.res.add(t, ip.count)
	st.exact.Add(t)
	ip.count++
	y := t - ip.totalC
	s := ip.total + y
	ip.totalC = (s - ip.total) - y
	ip.total = s
}

// Count returns the number of invocations ingested so far.
func (ip *IncrementalPlanner) Count() int { return ip.count }

// Names returns the number of distinct kernel names seen so far.
func (ip *IncrementalPlanner) Names() int { return len(ip.states) }

// TotalTime returns the exact (compensated) sum of all ingested times.
func (ip *IncrementalPlanner) TotalTime() float64 { return ip.total }

// Replans returns how many times the plan has been re-derived — the
// amortization observable: it grows O(log n) on the doubling schedule.
func (ip *IncrementalPlanner) Replans() int { return ip.replanCount }

// LastEstimate returns the most recent plan's extrapolation of the total
// time — each cluster's weight times the profiled times of its drawn
// samples (the values travel with their reservoir positions, so no second
// pass is needed). Valid after Plan/CurrentPlan has derived a plan.
func (ip *IncrementalPlanner) LastEstimate() float64 { return ip.lastEstimate }

// LastSampledTime returns the profiled time covered by the most recent
// plan's distinct samples — the numerator of the expected-speedup report.
func (ip *IncrementalPlanner) LastSampledTime() float64 { return ip.lastSampledTime }

// PlanAt returns the invocation count at the most recent re-plan (0 before
// the first plan) — the denominator for scaling LastEstimate forward to
// the current count.
func (ip *IncrementalPlanner) PlanAt() int { return ip.planAt }

// replanDue reports whether the cached plan is stale under the amortized
// schedule: no plan yet, a new kernel name appeared, the stream grew by
// replanGrowth, or some kernel's exact mean drifted past driftTol.
func (ip *IncrementalPlanner) replanDue() bool {
	if ip.plan == nil || ip.planAt == 0 {
		return true
	}
	if ip.planNames != len(ip.states) {
		return true
	}
	if ip.count >= replanGrowth*ip.planAt {
		return true
	}
	for _, st := range ip.states {
		ref := st.meanAtPlan
		if math.Abs(st.exact.Mean()-ref) > driftTol*math.Abs(ref) {
			return true
		}
	}
	return false
}

// CurrentPlan returns the cached plan, re-deriving it only when the
// amortized schedule says it is stale. The returned plan is shared — treat
// it as read-only.
func (ip *IncrementalPlanner) CurrentPlan() (*Plan, error) {
	if ip.bad != nil || ip.replanDue() {
		return ip.Plan()
	}
	return ip.plan, nil
}

// Plan re-derives the sampling plan from the current reservoirs and exact
// statistics, caches it, and resets the re-plan schedule. It is the
// streaming front end of derive: the names in sorted order, each with its
// reservoir. Deterministic: the same ingest sequence at the same seed yields
// a bit-identical plan at any worker count, regardless of how many times
// Plan or CurrentPlan ran before. The plan is newly allocated and shares no
// memory with the planner's scratch, so a plan obtained earlier is never
// changed by a later re-plan.
func (ip *IncrementalPlanner) Plan() (*Plan, error) {
	if ip.bad != nil {
		return nil, ip.bad
	}
	if ip.count == 0 {
		return nil, errors.New("core: empty profile stream")
	}
	a := ip.arena
	a.order = append(a.order[:0], ip.order...)
	sort.Strings(a.order)
	a.states = sized(a.states, len(a.order))
	slots, most := 0, 0
	for i, name := range a.order {
		a.states[i] = ip.states[name]
		slots += a.states[i].res.filled()
		most = max(most, a.states[i].res.filled())
	}
	ip.reserve(most, rootWorkers(slots, ip.p.Workers))
	plan := new(Plan)
	estimate, sampledTime, err := a.derive(plan, ip.p, seedLabelDraw)
	if err != nil {
		return nil, err
	}
	ip.lastEstimate = estimate
	ip.lastSampledTime = sampledTime

	ip.plan = plan
	ip.planAt = ip.count
	ip.planNames = len(ip.states)
	ip.replanCount++
	for _, st := range ip.states {
		st.meanAtPlan = st.exact.Mean()
	}
	return plan, nil
}

// reserve recruits the re-plan's team and sizes the scratch it uses for one
// kernel at a time, before the first kernel is clustered: for the largest
// reservoir, of most slots, rounded up to a power of two and capped at the
// reservoir capacity, so it grows at most log₂(capacity) times in a
// planner's life. Re-made at exactly each larger reservoir — as the sorted
// names and the re-plans reached one — it cost about twice what one
// capacity-sized set holds. Every worker is sized before the fan-out,
// whichever names it will claim. The capacity of the leader's perm is the
// size reserved.
func (ip *IncrementalPlanner) reserve(most, workers int) {
	a := ip.arena
	if most > cap(a.perm) {
		n := min(1<<bits.Len(uint(most-1)), ip.opts.reservoirCap())
		a.perm, a.permVal = make([]int, 0, n), make([]float64, 0, n)
		a.drawn = make([]uint64, 0, (n+63)/64)
	}
	for _, wa := range a.recruit(min(workers, len(a.states)), newArena) {
		wa.reserve(cap(a.perm))
	}
}

// groupSlots is a stable counting sort of one kernel's reservoir by leaf
// into a.perm (stream positions) and a.permVal (their times), the
// reservoir's blocks walked in slot order. The group sizes are already
// known: they are the leaves' populations.
func (a *splitArena) groupSlots(res *pairReservoir, leaves []Cluster) {
	a.cursor = sized(a.cursor, len(leaves))
	at := 0
	for j := range leaves {
		a.cursor[j] = at
		at += leaves[j].Stats.N
	}
	a.perm, a.permVal = sized(a.perm, at), sized(a.permVal, at)
	for _, b := range res.blocks {
		for s, v := range b.vals {
			j := leafOf(leaves, v)
			a.perm[a.cursor[j]], a.permVal[a.cursor[j]] = b.pos[s], v
			a.cursor[j]++
		}
	}
}

// nameStats fills out with the cluster statistics of one kernel's leaves
// and returns the name's calibration scale. A batch name (st nil) and a
// reservoir that retained every observation have leaves whose statistics
// ARE the exact ones (folded in stream order), and the scale is exactly 1.
// Otherwise the reservoir is a uniform sample: leaf populations are
// apportioned from the exact count by largest remainder
// (they sum exactly to N), and means/deviations are scaled so the plan's
// implied total Σ N_c·μ_c equals the kernel's exact total time.
func nameStats(out []ClusterStats, st *incNameState, leaves []Cluster) float64 {
	if st == nil || st.res.seen <= st.res.filled() {
		for i := range leaves {
			out[i] = leaves[i].Stats
		}
		return 1
	}
	r := st.res.filled()

	// Apportion the exact population over leaves ∝ reservoir counts.
	// Over capacity exactN > r and every leaf holds a reservoir slot,
	// so each quota is at least 1, and the quotas sum to at most exactN.
	exactN := st.exact.N()
	assigned := 0
	for i := range leaves {
		out[i].N = exactN * leaves[i].Stats.N / r
		assigned += out[i].N
	}
	// Largest-remainder distribution of the leftovers, ties to the lower
	// index for determinism.
	for assigned < exactN {
		best, bestRem := 0, -1.0
		for i := range leaves {
			rem := float64(exactN*leaves[i].Stats.N)/float64(r) - float64(out[i].N)
			if rem > bestRem {
				best, bestRem = i, rem
			}
		}
		out[best].N++
		assigned++
	}

	// Calibrate: scale the reservoir means so Σ N_c·μ_c reproduces the
	// exact per-name total. Deviations scale with the values.
	var implied float64
	for i := range leaves {
		out[i].Mean = leaves[i].Stats.Mean
		out[i].StdDev = leaves[i].Stats.StdDev
		implied += float64(out[i].N) * out[i].Mean
	}
	exactSum := st.exact.Sum()
	if implied <= 0 || exactSum <= 0 {
		return 1
	}
	s := exactSum / implied
	for i := range out {
		out[i].Mean *= s
		out[i].StdDev *= s
	}
	return s
}

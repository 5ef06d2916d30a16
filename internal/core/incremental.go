package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"stemroot/internal/rng"
	"stemroot/internal/stats"
)

// Seed-derivation labels: per-name reservoir RNGs are split, in first-seen
// order, from the first; sample draws come from the second.
const (
	seedLabelReservoir = 0x57e4
	seedLabelDraw      = 0xd4aa
)

// StreamOptions tunes the IncrementalPlanner.
type StreamOptions struct {
	// ReservoirCap bounds the per-kernel-name time sample used for
	// clustering; 0 means 8192, and a negative cap is ErrReservoirCap.
	// Peak memory is independent of trace length: O(#names × ReservoirCap)
	// for the reservoirs, plus O(ReservoirCap) re-plan scratch, plus the
	// plan.
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

// cutScratch holds the reusable buffers of leafCuts so amortized
// re-clustering allocates nothing once warm.
type cutScratch struct {
	valBuf []float64
	idxBuf []int
	leaves []Cluster
}

// leafCuts appends ROOT's leaves of one kernel's reservoir to the re-plan's
// intervals. The leaves are ascending ranges of the sorted times, so each
// is bounded above by the last time of its range (the last leaf by +Inf),
// and intervalOf sends every reservoir value to its own leaf. A leaf's
// statistics are folded in slot order — stream order for an in-reservoir
// kernel — over a copy of the times, as the recursion partitions in place.
func (ip *IncrementalPlanner) leafCuts(name string, st *incNameState) {
	sc := &ip.sc
	sc.valBuf = st.res.appendTimes(sc.valBuf[:0])
	n := len(sc.valBuf)
	if cap(sc.idxBuf) < n {
		sc.idxBuf = make([]int, n)
	}
	idxs := sc.idxBuf[:n]
	for i := range idxs {
		idxs[i] = i
	}
	sc.leaves = ip.arena.splitGroup(name, sc.valBuf, idxs, ip.p, sc.leaves[:0])
	at := 0
	for i, leaf := range sc.leaves {
		at += len(leaf.Indices)
		hi := math.Inf(1)
		if i < len(sc.leaves)-1 {
			hi = ip.arena.sorted[at-1] // more than one leaf: the group was sorted
		}
		ip.cuts = append(ip.cuts, hi)
		ip.intervals = append(ip.intervals, incInterval{name: name, st: st, cs: leaf.Stats})
	}
}

// intervalOf returns which of the half-open intervals with the ascending
// upper bounds cuts holds v.
func intervalOf(cuts []float64, v float64) int {
	j := sort.SearchFloat64s(cuts, v)
	if j >= len(cuts) {
		j = len(cuts) - 1
	}
	return j
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
// Peak memory is independent of trace length: O(#names × ReservoirCap) for
// the reservoirs, O(ReservoirCap + #clusters) of re-plan scratch that the
// planner owns and reuses, and the derived plan itself (#clusters entries
// plus their drawn samples). A re-plan allocates the plan it returns and
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

	// Plan-derivation scratch, reused across re-plans. One entry per
	// interval (or per name), all names' intervals in sorted-name order:
	sorted    []string
	cuts      []float64 // cuts[i] is the upper bound of intervals[i]
	intervals []incInterval
	statsVec  []ClusterStats
	sizes     []int
	kkt       kktScratch
	// and, for the one kernel being worked on, at most ReservoirCap entries:
	arena splitArena
	sc    cutScratch
	perm  []int32  // reservoir slots grouped by interval, slot order kept
	ends  []int    // ends[j] is where interval j's group ends in perm
	drawn []uint64 // bitset over reservoir slots: already counted as sampled
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
// statistics, caches it, and resets the re-plan schedule. Deterministic:
// the same ingest sequence at the same seed yields a bit-identical plan,
// regardless of how many times Plan or CurrentPlan ran before. The plan is
// newly allocated and shares no memory with the planner's scratch, so a
// plan obtained earlier is never changed by a later re-plan.
func (ip *IncrementalPlanner) Plan() (*Plan, error) {
	if ip.bad != nil {
		return nil, ip.bad
	}
	if ip.count == 0 {
		return nil, errors.New("core: empty profile stream")
	}
	ip.sorted = append(ip.sorted[:0], ip.order...)
	sort.Strings(ip.sorted)
	ip.reserveScratch()

	// Phase 1, per name: the intervals are ROOT's leaves, with their
	// statistics. Which slot fell where is not kept — phase 3 re-derives it
	// for one name at a time.
	ip.cuts, ip.intervals = ip.cuts[:0], ip.intervals[:0]
	for _, name := range ip.sorted {
		ip.leafCuts(name, ip.states[name])
	}
	intervals := ip.intervals
	n := len(intervals)

	// Phase 2: per-cluster statistics — exact when the reservoir holds the
	// kernel's entire population; otherwise reservoir estimates apportioned
	// to the exact count and calibrated to the exact total time, with the
	// per-name calibration factor carried into the sample weights so the
	// extrapolation (Weight × Σ sampled times) stays unbiased too — and the
	// joint sizing over all of them.
	ip.statsVec = sized(ip.statsVec, n)
	statsVec := ip.statsVec
	for lo := 0; lo < n; {
		hi := nameRun(intervals, lo)
		s := ip.nameStats(statsVec[lo:hi], intervals[lo].st, intervals[lo:hi])
		for i := lo; i < hi; i++ {
			intervals[i].scale = s
		}
		lo = hi
	}
	ip.sizes = sized(ip.sizes, n)
	sizes := optimalSizesInto(ip.sizes, statsVec, ip.p, &ip.kkt)
	if ip.p.SmallSampleT {
		applyTCorrection(statsVec, sizes, ip.p)
	}

	// Phase 3, per name again: group the reservoir slots by interval and
	// draw. perm[ends[j]-n_j : ends[j]] are interval j's n_j candidate slots
	// in reservoir order; a slot's stream position and time are read from
	// the reservoir itself.
	plan := &Plan{Params: ip.p, Clusters: make([]PlanCluster, n)}
	drawGen := rng.New(rng.Derive(ip.p.Seed, seedLabelDraw))
	var estimate, sampledTime float64
	for lo := 0; lo < n; {
		hi := nameRun(intervals, lo)
		res := &intervals[lo].st.res
		ip.groupSlots(res, ip.cuts[lo:hi], intervals[lo:hi])
		ip.drawn = sized(ip.drawn, (res.filled()+63)/64)
		clear(ip.drawn)
		for i := lo; i < hi; i++ {
			iv := &intervals[i]
			m, cs := sizes[i], statsVec[i]
			pc := &plan.Clusters[i]
			*pc = PlanCluster{Kernel: iv.name, Population: cs.N, Mean: cs.Mean, StdDev: cs.StdDev}
			if cs.N <= 0 || m <= 0 {
				continue
			}
			end := ip.ends[i-lo]
			pool := ip.perm[end-iv.cs.N : end]
			all := m >= cs.N
			if all {
				// Exact coverage needs an index for every member; cap at
				// the candidate pool (distinct draws).
				m = min(cs.N, len(pool))
			}
			pc.Weight = iv.scale * float64(cs.N) / float64(m)
			if m > 0 {
				pc.Samples = make([]int, m)
			}
			for j := range pc.Samples {
				k := j
				if !all {
					k = drawGen.Intn(len(pool))
				}
				slot := pool[k]
				t, pos := res.at(int(slot))
				pc.Samples[j] = pos
				estimate += pc.Weight * t
				if word, bit := &ip.drawn[slot>>6], uint64(1)<<(slot&63); *word&bit == 0 {
					*word |= bit
					sampledTime += t
				}
			}
		}
		lo = hi
	}
	if err := plan.setBound(statsVec, sizes); err != nil {
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

// reserveScratch sizes the scratch a re-plan uses for one kernel at a time
// before the first kernel is clustered: for the largest reservoir, rounded
// up to a power of two and capped at the reservoir capacity, so it grows at
// most log₂(capacity) times in a planner's life. Re-made at exactly each
// larger reservoir — as the sorted names and the re-plans reached one — it
// cost about twice what one capacity-sized set holds. The capacity of perm
// is the size reserved.
func (ip *IncrementalPlanner) reserveScratch() {
	most := 0
	for _, st := range ip.states {
		most = max(most, st.res.filled())
	}
	if most <= cap(ip.perm) {
		return
	}
	n := min(1<<bits.Len(uint(most-1)), ip.opts.reservoirCap())
	ip.perm = make([]int32, 0, n)
	ip.drawn = make([]uint64, 0, (n+63)/64)
	ip.sc.valBuf = make([]float64, 0, n)
	ip.sc.idxBuf = make([]int, n)
	ip.arena.grow(n)
}

// incInterval is one derived cluster interval during Plan: the owning
// kernel's state, the statistics of the reservoir members in the interval
// (its ROOT leaf's), and the kernel's calibration scale.
type incInterval struct {
	name  string
	st    *incNameState
	cs    ClusterStats
	scale float64
}

// sized returns buf at length n with unspecified contents, reallocating only
// when its capacity is short.
func sized[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// fit is sized for an array a caller keeps: a short buf is replaced by one
// of exactly n elements, a single object even when the race detector is on.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, n)
	}
	return buf[:n]
}

// nameRun returns the end of the run of intervals, starting at lo, that
// belong to one kernel.
func nameRun(intervals []incInterval, lo int) int {
	hi := lo + 1
	for hi < len(intervals) && intervals[hi].st == intervals[lo].st {
		hi++
	}
	return hi
}

// groupSlots is a stable counting sort of one kernel's reservoir slots by
// interval into ip.perm, leaving each interval's end offset in ip.ends. The
// group sizes are already known: they are the leaves' populations. The
// reservoir's blocks are walked in slot order.
func (ip *IncrementalPlanner) groupSlots(res *pairReservoir, cuts []float64, ivs []incInterval) {
	ip.ends = sized(ip.ends, len(ivs))
	at := 0
	for j := range ivs {
		ip.ends[j] = at // the group's start, advanced to its end below
		at += ivs[j].cs.N
	}
	ip.perm = sized(ip.perm, res.filled())
	slot := int32(0)
	for _, b := range res.blocks {
		for _, v := range b.vals {
			j := intervalOf(cuts, v)
			ip.perm[ip.ends[j]] = slot
			ip.ends[j]++
			slot++
		}
	}
}

// nameStats fills out with the cluster statistics of one kernel's
// intervals and returns the name's calibration scale. When the reservoir
// retained every observation the leaves' statistics ARE the exact ones
// (folded in stream order) and the scale is exactly 1.
// Otherwise the reservoir is a uniform sample: interval populations are
// apportioned from the exact count by largest remainder
// (they sum exactly to N), and means/deviations are scaled so the plan's
// implied total Σ N_c·μ_c equals the kernel's exact total time.
func (ip *IncrementalPlanner) nameStats(out []ClusterStats, st *incNameState, intervals []incInterval) float64 {
	r := st.res.filled()
	if st.res.seen <= r {
		for i := range intervals {
			out[i] = intervals[i].cs
		}
		return 1
	}

	// Apportion the exact population over intervals ∝ reservoir counts.
	// Over capacity exactN > r and every interval holds a reservoir slot,
	// so each quota is at least 1, and the quotas sum to at most exactN.
	exactN := st.exact.N()
	assigned := 0
	for i := range intervals {
		out[i].N = exactN * intervals[i].cs.N / r
		assigned += out[i].N
	}
	// Largest-remainder distribution of the leftovers, ties to the lower
	// index for determinism.
	for assigned < exactN {
		best, bestRem := 0, -1.0
		for i := range intervals {
			rem := float64(exactN*intervals[i].cs.N)/float64(r) - float64(out[i].N)
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
	for i := range intervals {
		out[i].Mean = intervals[i].cs.Mean
		out[i].StdDev = intervals[i].cs.StdDev
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

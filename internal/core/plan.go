package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"stemroot/internal/parallel"
	"stemroot/internal/rng"
)

// PlanCluster is one cluster of a sampling plan — the one cluster record
// every planner returns and the public stemroot.Cluster: which invocations
// it covers, which were sampled, and the weight each sample carries in the
// weighted-sum extrapolation (N_i / m_i). A baseline planner fills only
// Samples and Weight.
type PlanCluster struct {
	// Kernel is the kernel name the cluster belongs to.
	Kernel string
	// Members are the invocation indices the cluster represents; nil in a
	// streaming plan (SampleStream, StreamPlanner), which does not keep
	// them.
	Members []int
	// Population is the number of invocations the cluster stands for:
	// len(Members) in a batch plan; in a streaming plan, the cluster's
	// share of its kernel's exact count (the shares sum to that count,
	// while Weight also carries the calibration to the kernel's exact
	// total time). Plan JSON does not store it: ReadPlanJSON sets it to
	// len(Members), so a streaming plan reads back with Population 0.
	Population int
	// Samples are the invocation indices to simulate, drawn with
	// replacement (simulate distinct ones once and reuse the result) —
	// except in a capped cluster, whose sizing reached its population:
	// that lists every member once (in a streaming plan, every member its
	// kernel's reservoir kept). len(Samples) is the cluster's m_i.
	Samples []int
	// Weight multiplies each sample's measured time in the estimate.
	Weight float64
	// Mean and StdDev summarize the cluster's profiled times.
	Mean, StdDev float64
}

// Plan is a complete STEM+ROOT sampling plan — the "sampling information"
// handed to the simulator in the paper's Figure 5 pipeline.
type Plan struct {
	Params   Params
	Clusters []PlanCluster
	// PredictedError is the theoretical bound (Eq. 4/5) for the chosen
	// sizes; it is <= Params.Epsilon by construction (up to the
	// conservative with-replacement variance of fully-sampled clusters).
	PredictedError float64
	// members and samples are the arrays the clusters' Members (batch
	// only) and Samples are windows of, which BuildPlanInto reuses when it
	// plans into p again.
	members, samples []int
}

// BuildPlan runs the full STEM+ROOT methodology over a profiled workload:
// ROOT clusters the invocations (hierarchically, per kernel name), one
// joint KKT pass sizes every leaf cluster, and samples are drawn with
// replacement (satisfying the CLT's i.i.d. requirement, §3.5).
func BuildPlan(names []string, times []float64, p Params) (*Plan, error) {
	plan := new(Plan)
	if err := BuildPlanInto(plan, len(names), func(i int) string { return names[i] }, times, p); err != nil {
		return nil, err
	}
	return plan, nil
}

// BuildPlanInto is BuildPlan over n rows (nameOf(i), times[i]), written into
// the caller's plan: for callers whose names sit inside other records and
// that keep the plan inside a record of their own. nameOf is called once per
// row, on the calling goroutine. It reuses the clusters, member and sample
// arrays an earlier call left in *plan where they are large enough, so once
// an idle arena has grown to the profile's shape, planning again into one
// plan allocates nothing up to arenaKeep rows and, past it, only the row ->
// name-id array the idle arena does not keep (4 B a row); into a zero Plan
// it allocates those three arrays too.
// Every field of *plan is overwritten. On an error it holds no usable plan.
// A time that is negative, NaN or +Inf is refused, with its invocation
// named, as the IncrementalPlanner refuses it.
func BuildPlanInto(plan *Plan, n int, nameOf func(i int) string, times []float64, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i, t := range times[:n] {
		if !validTime(t) {
			return invalidTimeError(t, i)
		}
	}
	a := takeArena()
	a.backing = plan.members
	a.group(n, nameOf, times, rootWorkers(n, p.Workers))
	_, _, err := a.derive(plan, p, seedLabelBatchDraw)
	putArena(a) // not deferred: an arena abandoned by a panic is not reused
	return err
}

// splitArena is the scratch of the one plan derivation (derive): of one
// ROOT worker, and of the call that leads a team of them. The recursion
// reads its group's sorted times and uses the tmp buffers only for the
// stable partition at the current node, so one arena serves an entire
// kernel-name group: a parent is done with every buffer before it recurses
// (only the group bounds and sub-statistics survive into the recursion, and
// those live on the stack). Arenas are pure scratch — reusing them across
// calls cannot affect results. A batch call leads with an idle arena and
// recruits idle ones; an IncrementalPlanner owns its leader and its team.
type splitArena struct {
	// A worker's ROOT scratch.
	valTmp []float64 // stable-partition scratch; the radix sort's second buffer
	idxTmp []int     // stable-partition scratch
	sorted []float64 // the group being split, its times ascending
	cursor []int     // scatter cursors: per subcluster, per name (group), per leaf (groupSlots)
	sizes  []int     // a split's candidate sizes; the leader's plan sizes
	kkt    kktScratch
	leaves []Cluster // batch: the leaves of every name this worker split, back to back
	resVal []float64 // a copy of the times it splits: one name's rows, or one reservoir
	resIdx []int     // streaming: the reservoir's slot numbers

	// The leader's, for the call: the names in sorted order and, from one
	// of the two front ends, their rows or their reservoirs.
	p       Params
	order   []string        // distinct names, sorted
	states  []*incNameState // streaming: order[i]'s reservoir and exact moments
	idOf    map[string]int32
	ids     []int32   // batch: row -> first-appearance id of its name
	start   []int     // batch: sorted name -> first position in backing
	backing []int     // batch: row indices, one contiguous range per name: the one array the leaves keep
	times   []float64 // batch: the caller's times, by row
	team    []*splitArena
	spans   []leafSpan     // sorted name -> its leaves in flat (batch: first in its worker's)
	split   func(w, i int) // splitName, bound once: a closure per call would allocate
	flat    []Cluster      // the leaves in name order
	stats   []ClusterStats // per leaf, as sized
	scale   []float64      // per name: the calibration its weights carry
	perm    []int          // streaming: one reservoir's positions, grouped by leaf
	permVal []float64      // one name's candidates' times, grouped by leaf
	drawn   []uint64       // bitset over one name's candidates: already counted as sampled
}

// leafSpan locates one name's leaves: flat[lo:hi], and in a batch fan-out
// team[worker].leaves[lo:hi] before that.
type leafSpan struct{ worker, lo, hi int }

// idleArenas holds arenas between planning calls. Like gpu's idle lists, and
// for the reason given there, it is a bounded LIFO and not a pool the runtime
// empties: which arenas are re-grown — and so what a run allocates — depends
// only on the sequence of calls, never on the collector's schedule.
var idleArenas struct {
	sync.Mutex
	arenas []*splitArena // most recently returned last
}

// maxIdleArenas bounds what idleArenas retains; the oldest is dropped first.
const maxIdleArenas = 16

// arenaKeep bounds, in elements per buffer, what an idle arena retains of a
// call's own scratch: a 30 000-row profile's row and leaf lists are dropped on
// return, not pinned on the idle list (the partition buffers stay, as before).
const arenaKeep = rootGrainRows

func newArena() *splitArena {
	a := new(splitArena)
	a.split = a.splitName
	return a
}

// takeArena returns the most recently returned idle arena, or a new one.
func takeArena() *splitArena {
	var a *splitArena
	idleArenas.Lock()
	idleArenas.arenas, a = parallel.PopIdle(idleArenas.arenas)
	idleArenas.Unlock()
	if a == nil {
		a = newArena()
	}
	return a
}

// putArena sends a and the team it recruited to the idle list: cleared of
// what refers to the caller's names or the returned index array, less the
// buffers that outgrew arenaKeep.
func putArena(a *splitArena) {
	for _, wa := range a.team[min(1, len(a.team)):] {
		putArena(wa)
	}
	clear(a.idOf)
	if len(a.order) > arenaKeep {
		a.idOf = nil
	}
	clear(a.leaves)
	clear(a.flat)
	clear(a.order)
	clear(a.team)
	a.leaves, a.flat, a.order, a.team = kept(a.leaves), kept(a.flat), kept(a.order), kept(a.team)
	a.ids, a.start, a.cursor = kept(a.ids), kept(a.start), kept(a.cursor)
	a.spans, a.stats, a.sizes, a.backing, a.times = kept(a.spans), kept(a.stats), kept(a.sizes), nil, nil
	a.scale, a.drawn = kept(a.scale), kept(a.drawn)
	idleArenas.Lock()
	idleArenas.arenas = parallel.PushIdle(idleArenas.arenas, a, maxIdleArenas)
	idleArenas.Unlock()
}

// kept returns buf emptied for the next call, or nil past arenaKeep.
func kept[T any](buf []T) []T {
	if cap(buf) > arenaKeep {
		return nil
	}
	return buf[:0]
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

// recruit makes a.team the leader and workers−1 more arenas, keeping the
// ones it already has and taking the rest from more.
func (a *splitArena) recruit(workers int, more func() *splitArena) []*splitArena {
	if len(a.team) == 0 {
		a.team = append(a.team, a)
	}
	for len(a.team) < workers {
		a.team = append(a.team, more())
	}
	a.team = a.team[:max(workers, 1)]
	return a.team
}

// group is the batch front end: it lays the n rows (nameOf(i), times[i])
// out by name, for a's derivation, with a team for `workers`. One hash per
// row gives each row the first-appearance id of its name; names are laid out
// in sorted order, deterministic whatever the input order, and each name's
// row indices keep their chronological order. a.backing is the caller's
// array when it holds n rows, else a new one, which the caller may keep. The
// times are not copied: a worker gathers one name's at a time.
func (a *splitArena) group(n int, nameOf func(i int) string, times []float64, workers int) {
	if a.idOf == nil {
		a.idOf = make(map[string]int32)
	}
	a.ids = sized(a.ids, n)
	order, cursor := a.order[:0], a.cursor[:0]
	for i := range a.ids {
		nm := nameOf(i)
		id, ok := a.idOf[nm]
		if !ok {
			id = int32(len(order))
			a.idOf[nm] = id
			order = append(order, nm)
			cursor = append(cursor, 0)
		}
		a.ids[i] = id
		cursor[id]++
	}
	// Each id's count becomes its group's first position.
	sort.Strings(order)
	start := sized(a.start, len(order)+1)
	start[0] = 0
	for g, nm := range order {
		id := a.idOf[nm]
		start[g+1] = start[g] + cursor[id]
		cursor[id] = start[g]
	}
	a.backing, a.times = fit(a.backing, n), times
	for i, id := range a.ids {
		a.backing[cursor[id]] = i
		cursor[id]++
	}
	a.order, a.start, a.cursor = order, start, cursor
	a.recruit(min(workers, len(order)), takeArena)
}

// cluster is phase 1 of the derivation: ROOT over every name, fanned out
// over a.team, one unit per name, whose leaves it returns in name order. They
// are a's scratch, valid until putArena; a batch leaf's index list is a
// window of a.backing, and a streaming leaf has none.
func (a *splitArena) cluster(p Params) []Cluster {
	a.p, a.spans = p, sized(a.spans, len(a.order))
	parallel.ForEachStealing(len(a.order), len(a.team), a.split)
	flat := a.flat[:0]
	for i, sp := range a.spans {
		from := len(flat)
		if a.states == nil {
			flat = append(flat, a.team[sp.worker].leaves[sp.lo:sp.hi]...)
		} else {
			flat = append(flat, a.states[i].leaves...)
		}
		a.spans[i] = leafSpan{lo: from, hi: len(flat)}
	}
	a.flat = flat
	return flat
}

// splitName is unit i of cluster's fan-out, on worker w: ROOT over the i-th
// name in sorted order — a copy of its rows' times, split with their range
// of backing and its leaves appended to the worker's own list, or a copy of
// its reservoir.
func (a *splitArena) splitName(w, i int) {
	wa := a.team[w]
	if a.states != nil {
		wa.splitReservoir(a.order[i], a.states[i], a.p)
		return
	}
	from := len(wa.leaves)
	rows := a.backing[a.start[i]:a.start[i+1]]
	wa.resVal = gather(wa.resVal, a.times, rows)
	wa.leaves = wa.splitGroup(a.order[i], wa.resVal, rows, a.p, wa.leaves)
	a.spans[i] = leafSpan{w, from, len(wa.leaves)}
}

// derive is the one plan derivation (§3, Fig. 5) over the names a front end
// handed a: ROOT splits each name (phase 1, cluster); every leaf's
// statistics — a reservoir's calibrated to its kernel's exact count and
// total (nameStats) — are sized by one joint KKT pass (phase 2); and one
// loop draws every leaf's samples from its candidates into one array
// (phase 3), with the generator seeded by drawLabel. It returns the plan's
// extrapolation of the total time from the drawn samples' own times, and
// the time of its distinct samples.
func (a *splitArena) derive(plan *Plan, p Params, drawLabel uint64) (estimate, sampledTime float64, err error) {
	leaves := a.cluster(p)

	// Phase 2.
	n := len(leaves)
	a.stats, a.sizes, a.scale = sized(a.stats, n), sized(a.sizes, n), sized(a.scale, len(a.order))
	for i, sp := range a.spans {
		var st *incNameState // a batch name's leaves are exact
		if a.states != nil {
			st = a.states[i]
		}
		a.scale[i] = nameStats(a.stats[sp.lo:sp.hi], st, leaves[sp.lo:sp.hi])
	}
	sizes := optimalSizesInto(a.sizes, a.stats, p, &a.kkt)
	if p.SmallSampleT {
		applyTCorrection(a.stats, sizes, p)
	}

	// Phase 3. One array holds every cluster's samples; each cluster takes
	// a capped window, so appending to one never writes into the next.
	total := 0
	for i, m := range sizes {
		total += draws(m, a.stats[i].N, leaves[i].Stats.N)
	}
	samples := fit(plan.samples, total)
	r := rng.Seeded(rng.Derive(p.Seed, drawLabel))
	*plan = Plan{Params: p, Clusters: fit(plan.Clusters, n), members: a.backing, samples: samples}
	for i, sp := range a.spans {
		// A leaf's candidates are the next Stats.N of its name's: its
		// members, or the reservoir slots that fall in it.
		members, times := a.candidates(i, leaves[sp.lo:sp.hi])
		a.drawn = sized(a.drawn, (len(members)+63)/64)
		clear(a.drawn)
		first := 0
		for c := sp.lo; c < sp.hi; c++ {
			leaf, cs := &leaves[c], a.stats[c]
			pool, poolTimes := members[first:first+leaf.Stats.N], times[first:first+leaf.Stats.N]
			pc := &plan.Clusters[c]
			*pc = PlanCluster{Kernel: leaf.Name, Members: leaf.Indices, Population: cs.N, Mean: cs.Mean, StdDev: cs.StdDev}
			m := draws(sizes[c], cs.N, len(pool))
			if m > 0 {
				all := sizes[c] >= cs.N // every candidate once, exactly
				pc.Weight = a.scale[i] * float64(cs.N) / float64(m)
				pc.Samples, samples = samples[:m:m], samples[m:]
				for j := range pc.Samples {
					k := j
					if !all {
						k = r.Intn(len(pool))
					}
					pc.Samples[j] = pool[k]
					estimate += pc.Weight * poolTimes[k]
					if word, bit := &a.drawn[(first+k)/64], uint64(1)<<((first+k)%64); *word&bit == 0 {
						*word |= bit
						sampledTime += poolTimes[k]
					}
				}
			}
			first += leaf.Stats.N
		}
	}
	return estimate, sampledTime, plan.setBound(a.stats, sizes)
}

// draws is how many samples a leaf sized m takes from its candidates for its
// population: none when either is empty, every candidate once when m
// reaches the population, else m, drawn with replacement.
func draws(m, population, candidates int) int {
	switch {
	case population <= 0 || m <= 0:
		return 0
	case m >= population:
		return min(population, candidates)
	}
	return m
}

// candidates returns the i-th name's candidates, grouped by leaf in leaf
// order, and their times: a batch name's partitioned rows, or a reservoir's
// (position, time) pairs regrouped by the leaves' bounds (groupSlots).
func (a *splitArena) candidates(i int, leaves []Cluster) ([]int, []float64) {
	if a.states == nil {
		rows := a.backing[a.start[i]:a.start[i+1]]
		a.permVal = gather(a.permVal, a.times, rows)
		return rows, a.permVal
	}
	a.groupSlots(&a.states[i].res, leaves)
	return a.perm, a.permVal
}

// gather returns times[rows[j]] for every j, in dst's array when it is long
// enough.
func gather(dst, times []float64, rows []int) []float64 {
	dst = sized(dst, len(rows))
	for j, r := range rows {
		dst[j] = times[r]
	}
	return dst
}

// setBound computes the plan's predicted error from its final sample sizes,
// which it writes over sizes (one element per cluster, contents ignored).
// Execution times near MaxFloat64 overflow the variance term N²σ² (or the
// total) to +Inf or NaN; such a value is not a bound, so the plan is refused
// instead of being handed to callers that compare it against ε.
func (plan *Plan) setBound(statsVec []ClusterStats, sizes []int) error {
	for i := range plan.Clusters {
		sizes[i] = len(plan.Clusters[i].Samples)
	}
	plan.PredictedError = PredictedError(statsVec, sizes, plan.Params)
	if math.IsNaN(plan.PredictedError) || math.IsInf(plan.PredictedError, 0) {
		return fmt.Errorf("core: execution times overflow the error model (predicted error %v is not a bound)", plan.PredictedError)
	}
	return nil
}

// Estimate extrapolates the total execution time from measured sample times:
// Σ_i weight_i · Σ_{s in samples_i} t[s] — the weighted sum of §3.1. The
// sampleTimes function maps an invocation index to its measured time in the
// sampled simulation (which may run on different hardware or a simulator).
func (p *Plan) Estimate(sampleTimes func(int) float64) float64 {
	var total float64
	for i := range p.Clusters {
		c := &p.Clusters[i]
		var sum float64
		for _, s := range c.Samples {
			sum += sampleTimes(s)
		}
		total += c.Weight * sum
	}
	return total
}

// SampledIndices returns the distinct invocations the plan requires
// simulating, in ascending order.
func (p *Plan) SampledIndices() []int {
	return p.AppendSampledIndices(make([]int, 0, p.TotalSamples()))
}

// AppendSampledIndices appends SampledIndices to dst and returns the
// extended slice, for a caller that reuses the list's array.
func (p *Plan) AppendSampledIndices(dst []int) []int {
	n := len(dst)
	for i := range p.Clusters {
		dst = append(dst, p.Clusters[i].Samples...)
	}
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

// TotalSamples returns Σ m_i, the number of (with-replacement) samples.
func (p *Plan) TotalSamples() int {
	n := 0
	for i := range p.Clusters {
		n += len(p.Clusters[i].Samples)
	}
	return n
}

// SimTimeEstimate returns τ = Σ m_i μ_i for the plan — the simulated-time
// proxy STEM minimizes.
func (p *Plan) SimTimeEstimate() float64 {
	var tau float64
	for i := range p.Clusters {
		tau += float64(len(p.Clusters[i].Samples)) * p.Clusters[i].Mean
	}
	return tau
}

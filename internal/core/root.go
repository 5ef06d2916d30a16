package core

import (
	"slices"
	"sort"
	"sync"

	"stemroot/internal/cluster"
	"stemroot/internal/parallel"
	"stemroot/internal/rng"
	"stemroot/internal/stats"
)

// Cluster is one leaf of ROOT's hierarchy: a set of invocation indices that
// behave alike, plus their execution-time statistics.
type Cluster struct {
	// Name is the kernel name the cluster descends from.
	Name string
	// Indices are invocation indices (into the workload) in this cluster.
	Indices []int
	// Stats summarizes the cluster members' execution times.
	Stats ClusterStats
}

// splitArena is the scratch memory of one ROOT clustering worker, and of the
// planning call that leads a team of them. The recursion uses the tmp buffers
// only for the stable partition at the current node, so one arena serves an
// entire kernel-name group: a parent is done with every buffer before it
// recurses (only the group offsets and sub-statistics survive into the
// recursion, and those live on the stack). Arenas are pure scratch — reusing
// them across calls cannot affect results.
type splitArena struct {
	valTmp []float64 // stable-partition scratch
	idxTmp []int     // stable-partition scratch
	cursor []int     // per-subcluster scatter cursors; per-name ones before the fan-out
	sizes  []int
	kkt    kktScratch
	km     cluster.Scratch1D
	leaves []Cluster // the leaves of every name this worker split, back to back

	// The leader of a call (cluster, planFromClusters) also holds whatever
	// dies with the call, so that a plan allocates only what it returns.
	idOf    map[string]int32 // name -> first-appearance id
	ids     []int32          // row -> id
	order   []string         // distinct names, sorted
	start   []int            // sorted name -> first position in backing and vals
	vals    []float64        // times, one contiguous range per name
	backing []int            // row indices, likewise: the one array the leaves keep
	spans   []leafSpan       // sorted name -> its leaves
	team    []*splitArena    // worker -> arena; team[0] is the leader
	flat    []Cluster        // the leaves in name order
	stats   []ClusterStats
	p       Params
	split   func(w, i int) // splitName, bound once: a closure per call would allocate
}

// leafSpan locates one name's leaves: team[worker].leaves[lo:hi].
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

// takeArena returns the most recently returned idle arena, or a new one.
func takeArena() *splitArena {
	var a *splitArena
	idleArenas.Lock()
	idleArenas.arenas, a = parallel.PopIdle(idleArenas.arenas)
	idleArenas.Unlock()
	if a == nil {
		a = new(splitArena)
		a.split = a.splitName
	}
	return a
}

// putArena sends a to the idle list: cleared of what refers to the caller's
// names or the returned index array, less the buffers that outgrew arenaKeep.
func putArena(a *splitArena) {
	clear(a.idOf)
	if len(a.order) > arenaKeep {
		a.idOf = nil
	}
	clear(a.leaves)
	clear(a.flat)
	clear(a.order)
	clear(a.team)
	a.leaves, a.flat, a.order, a.team = kept(a.leaves), kept(a.flat), kept(a.order), kept(a.team)
	a.ids, a.vals, a.start, a.cursor = kept(a.ids), kept(a.vals), kept(a.start), kept(a.cursor)
	a.spans, a.stats, a.sizes, a.backing = kept(a.spans), kept(a.stats), kept(a.sizes), nil
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

func (a *splitArena) grow(n int) {
	if cap(a.valTmp) < n {
		a.valTmp = make([]float64, n)
		a.idxTmp = make([]int, n)
	}
}

// rootSplit recursively partitions one kernel-name group. vals and idxs are
// parallel slices describing the current cluster's members — vals[i] is the
// execution time of invocation idxs[i] — and cs is StatsOf(vals), which the
// caller already has (the top level computes it once; a split computed it as
// the sub-cluster statistic), so no node summarizes its values twice. Both
// slices are stably partitioned in place as the recursion descends; emitted
// leaves alias disjoint sub-ranges of idxs.
//
// The branching rule (Fig. 4, bottom): estimate the simulated time of
// sampling the cluster as-is (τ_old, Eq. 7) and of sampling the k-means
// subclusters with jointly optimized sizes (τ_new, Eq. 8); split only if
// τ_new < τ_old.
func rootSplit(name string, vals []float64, idxs []int, cs ClusterStats, p Params, depth int, out []Cluster, a *splitArena) []Cluster {
	n := len(idxs)
	leaf := Cluster{Name: name, Indices: idxs[:n:n], Stats: cs} // capped: an append must not reach the next leaf

	if p.Flat || depth >= maxDepth || cs.N < minClusterSize || cs.StdDev == 0 {
		return append(out, leaf)
	}
	a.grow(n)

	res, err := a.km.KMeans(vals, p.SplitK, cluster.Options{
		Seed: rng.Derive(p.Seed, rng.HashString(name), uint64(depth), uint64(len(idxs))),
	})
	if err != nil {
		return append(out, leaf)
	}
	k := res.K

	nonEmpty := 0
	for _, c := range res.Counts {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return append(out, leaf) // k-means could not separate anything
	}

	// Group offsets and sub-statistics must survive the recursion below
	// (everything in the arena is clobbered by child nodes), so they live on
	// the stack for the usual SplitK and spill to the heap only for exotic
	// configurations.
	var offBuf [9]int
	offs := offBuf[:0]
	if k+1 > len(offBuf) {
		offs = make([]int, 0, k+1)
	}
	pos := 0
	for _, c := range res.Counts {
		offs = append(offs, pos)
		pos += c
	}
	offs = append(offs, pos)
	var subBuf [8]ClusterStats
	subStats := subBuf[:0]
	if k > len(subBuf) {
		subStats = make([]ClusterStats, 0, k)
	}

	// Stable partition by subcluster, scattered into the tmp buffers: group g
	// lands in idxTmp[offs[g]:offs[g+1]] with members in their original
	// order — exactly the per-group index lists Result.Groups() would build,
	// without allocating them. idxs itself stays untouched until the split is
	// accepted: a rejected split must emit the leaf with its original member
	// order. Sub-statistics accumulate during the scatter: each group's
	// Welford accumulator sees its values in partitioned order, the exact Add
	// sequence StatsOf would replay over valTmp[offs[g]:offs[g+1]] afterwards.
	var accBuf [8]stats.Online
	accs := accBuf[:]
	if k > len(accBuf) {
		accs = make([]stats.Online, k)
	}
	idxTmp, valTmp := a.idxTmp[:n], a.valTmp[:n]
	a.cursor = append(a.cursor[:0], offs[:k]...)
	cursor := a.cursor
	for i, g := range res.Assignment {
		c := cursor[g]
		idxTmp[c] = idxs[i]
		valTmp[c] = vals[i]
		cursor[g] = c + 1
		accs[g].Add(vals[i])
	}

	for j := 0; j < k; j++ {
		if offs[j] == offs[j+1] {
			continue
		}
		o := &accs[j]
		subStats = append(subStats, ClusterStats{N: o.N(), Mean: o.Mean(), StdDev: o.StdDev()})
	}

	// Eq. (7): simulated time of sampling the unsplit cluster.
	tauOld := float64(SampleSize(cs, p)) * cs.Mean
	// Eq. (8): simulated time after the split with joint KKT sizing.
	if cap(a.sizes) < len(subStats) {
		a.sizes = make([]int, len(subStats))
	}
	newSizes := optimalSizesInto(a.sizes[:len(subStats)], subStats, p, &a.kkt)
	tauNew := SimTime(subStats, newSizes)

	if tauNew >= tauOld {
		return append(out, leaf)
	}
	// Split accepted: commit the partition to idxs and vals, and recurse on
	// the group sub-ranges — each child inherits its slice pair plus the
	// statistic already computed for it above.
	copy(idxs, idxTmp)
	copy(vals, valTmp)
	si := 0
	for j := 0; j < k; j++ {
		lo, hi := offs[j], offs[j+1]
		if lo == hi {
			continue
		}
		out = rootSplit(name, vals[lo:hi], idxs[lo:hi], subStats[si], p, depth+1, out, a)
		si++
	}
	return out
}

// BuildClusters runs ROOT end to end: invocations are grouped by kernel
// name ("most large-scale GPU workloads typically consist of repetitive
// invocations of the same kernel types", §3), and each group is recursively
// split while splits keep reducing STEM's estimated simulation time.
//
// names[i] and times[i] describe invocation i. The returned leaves cover
// every invocation exactly once, ordered deterministically.
//
// Kernel-name groups are independent (each split derives its RNG from the
// name, depth, and group size — never from other groups), so they fan out
// over up to p.Workers workers, one per rootGrainRows rows: a profile below
// the grain is clustered on the calling goroutine whatever p.Workers says.
// Per-name leaf lists are flattened in sorted name order, making the output
// identical for every worker count. Every group's index list is a disjoint
// range of one shared backing array, partitioned in place by the recursion
// and capped leaf by leaf — the planner's per-invocation allocation is one
// int, regardless of clustering depth; everything else is arena scratch.
func BuildClusters(names []string, times []float64, p Params) []Cluster {
	return buildClusters(names, times, p, rootWorkers(len(names), p.Workers))
}

// rootWorkers is the fan-out width for n rows when asked for `asked`
// workers (0 = one per CPU): one per started grain, at most what was asked.
func rootWorkers(n, asked int) int {
	return min(parallel.Workers(asked), 1+n/rootGrainRows)
}

// rootGrainRows is the number of profile rows that pays for one more
// fan-out worker. Handing the per-name groups to goroutines costs a fixed
// wake-up and cache hand-off (tens of microseconds against ~0.1–0.2 µs of
// clustering per row), so below about a thousand rows two workers are slower
// than one: BenchmarkBuildClustersFanOut on the 2-vCPU reference box has
// workers=2 losing at 768 rows (110 vs 92 µs) and winning at 1024 (190 vs
// 215 µs); DESIGN §5.4 has the table. A DSE sweep plans thousands of
// 8–16-row profiles, where the fan-out was half the planner's time.
const rootGrainRows = 1024

// buildClusters is BuildClusters at an explicit worker count.
func buildClusters(names []string, times []float64, p Params, workers int) []Cluster {
	a := takeArena()
	out := slices.Clone(a.cluster(len(names), func(i int) string { return names[i] }, times, p, workers))
	putArena(a)
	return out
}

// cluster is ROOT over the n rows (nameOf(i), times[i]) with a leading the
// call. The returned leaves are a's scratch, valid until putArena; their
// index lists are windows of a.backing — the caller's array when it holds n
// rows, else a new one — which the caller may keep.
func (a *splitArena) cluster(n int, nameOf func(i int) string, times []float64, p Params, workers int) []Cluster {
	// One hash per row: each row gets the first-appearance id of its name,
	// and cursor counts the rows of each id.
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

	// Groups are laid out in sorted name order, deterministic independent
	// of input order; each id's count becomes its group's first position.
	sort.Strings(order)
	start := sized(a.start, len(order)+1)
	start[0] = 0
	for g, nm := range order {
		id := a.idOf[nm]
		start[g+1] = start[g] + cursor[id]
		cursor[id] = start[g]
	}

	// Chronological index and value lists, one contiguous range per name.
	a.backing, a.vals = fit(a.backing, n), sized(a.vals, n)
	for i, id := range a.ids {
		c := cursor[id]
		a.backing[c] = i
		a.vals[c] = times[i]
		cursor[id] = c + 1
	}

	// One arena per worker index, which ForEachStealing gives to one
	// goroutine for the whole call; the leader is worker 0's.
	a.team = append(a.team[:0], a)
	for w := 1; w < min(workers, len(order)); w++ {
		a.team = append(a.team, takeArena())
	}
	a.order, a.start, a.cursor, a.p, a.spans = order, start, cursor, p, sized(a.spans, len(order))
	parallel.ForEachStealing(len(order), workers, a.split)
	flat := a.flat[:0]
	for _, sp := range a.spans {
		flat = append(flat, a.team[sp.worker].leaves[sp.lo:sp.hi]...)
	}
	a.flat = flat
	for _, wa := range a.team[1:] {
		putArena(wa)
	}
	return flat
}

// splitName is unit i of cluster's fan-out, on worker w: ROOT over the i-th
// name in sorted order, its leaves appended to the worker's own list.
func (a *splitArena) splitName(w, i int) {
	lo, hi := a.start[i], a.start[i+1]
	vals, wa := a.vals[lo:hi], a.team[w]
	from := len(wa.leaves)
	wa.leaves = rootSplit(a.order[i], vals, a.backing[lo:hi], StatsOf(vals), a.p, 0, wa.leaves, wa)
	a.spans[i] = leafSpan{w, from, len(wa.leaves)}
}

// ClusterStatsOf extracts the per-cluster statistics vector, the input to
// the final joint KKT sizing pass.
func ClusterStatsOf(clusters []Cluster) []ClusterStats {
	out := make([]ClusterStats, len(clusters))
	for i, c := range clusters {
		out[i] = c.Stats
	}
	return out
}

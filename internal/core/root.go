package core

import (
	"math"
	"slices"

	"stemroot/internal/parallel"
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
	// upper bounds the members' times from above: the largest of them for
	// a leaf of a sorted group, +Inf for a group that stayed whole. A
	// streaming re-plan finds a reservoir slot's leaf by it (leafOf).
	upper float64
}

// grow sizes the partition buffers and the sorted copy for a group of n.
func (a *splitArena) grow(n int) {
	if cap(a.valTmp) < n {
		a.valTmp = make([]float64, n)
		a.idxTmp = make([]int, n)
		a.sorted = make([]float64, n)
	}
}

// splitGroup is ROOT over one kernel name's group, vals[i] the time of
// invocation idxs[i] in chronological order. A group that may split is
// sorted once, into a.sorted, whose ranges are the recursion's nodes.
func (a *splitArena) splitGroup(name string, vals []float64, idxs []int, p Params, out []Cluster) []Cluster {
	cs := StatsOf(vals)
	if p.Flat || cs.N < minClusterSize || cs.StdDev == 0 {
		return appendLeaf(out, name, idxs, cs, math.Inf(1))
	}
	a.grow(cs.N)
	sorted := a.sorted[:cs.N]
	sortTimes(sorted, vals, a.valTmp)
	return rootSplit(name, sorted, vals, idxs, cs, p, 0, out, a)
}

// appendLeaf appends the leaf of the members idxs with statistics cs and
// times at most upper.
func appendLeaf(out []Cluster, name string, idxs []int, cs ClusterStats, upper float64) []Cluster {
	n := len(idxs)
	return append(out, Cluster{Name: name, Indices: idxs[:n:n], Stats: cs, upper: upper}) // capped: an append must not reach the next leaf
}

// rootSplit recursively partitions one node: vals[i] is the time of
// invocation idxs[i], in chronological order, sorted holds the same times
// ascending, and cs is StatsOf(vals), which the caller already has. A split
// stably partitions vals and idxs in place, so each child is the same
// sub-range of all three slices; leaves alias disjoint sub-ranges of idxs,
// in ascending order of time.
//
// The branching rule (Fig. 4, bottom): split at the exact 1-D k-means
// optimum — the cuts of the sorted times that minimise the within-group sum
// of squares — only if the simulated time of sampling the SplitK groups
// with jointly optimized sizes (τ_new, Eq. 8) is below that of sampling the
// node as-is (τ_old, Eq. 7). Below minClusterSize members, past maxDepth,
// or with all times equal, a node is a leaf.
func rootSplit(name string, sorted, vals []float64, idxs []int, cs ClusterStats, p Params, depth int, out []Cluster, a *splitArena) []Cluster {
	// A node of non-negative times sized at one sample cannot split: each
	// group is sized at least one, so τ_new ≥ μ_1 + μ_2 exceeds τ_old = μ,
	// their weighted mean, by at least 1/N of it.
	if depth >= maxDepth || cs.N < minClusterSize || cs.StdDev == 0 || sorted[0] >= 0 && SampleSize(cs, p) == 1 {
		return appendLeaf(out, name, idxs, cs, sorted[cs.N-1])
	}
	// Group bounds and statistics outlive the arena's next use, in the
	// children, so they live on the stack for the usual SplitK.
	var boundBuf [9]int
	bounds := append(appendCuts(append(boundBuf[:0], 0), sorted, p.SplitK), cs.N)
	k := len(bounds) - 1
	if k < 2 {
		return appendLeaf(out, name, idxs, cs, sorted[cs.N-1]) // no two distinct times to cut between (NaN times)
	}

	// A stable partition by the groups' upper bounds puts group g's members
	// at [bounds[g], bounds[g+1]) of the tmp buffers, in chronological
	// order, and folds each group's statistics in that order: exactly the
	// StatsOf its leaf reports. idxs and vals are untouched until the split
	// is accepted.
	var accBuf [8]stats.Online
	accs := append(accBuf[:0], make([]stats.Online, k)...)
	idxTmp, valTmp := a.idxTmp[:cs.N], a.valTmp[:cs.N]
	cursor := append(a.cursor[:0], bounds[:k]...)
	for i, v := range vals {
		g := 0
		for _, b := range bounds[1:k] {
			if v > sorted[b-1] {
				g++
			}
		}
		c := cursor[g]
		idxTmp[c] = idxs[i]
		valTmp[c] = v
		cursor[g] = c + 1
		accs[g].Add(v)
	}
	a.cursor = cursor
	var subBuf [8]ClusterStats
	subStats := subBuf[:0]
	for g := range accs {
		subStats = append(subStats, ClusterStats{N: accs[g].N(), Mean: accs[g].Mean(), StdDev: accs[g].StdDev()})
	}
	tauOld := float64(SampleSize(cs, p)) * cs.Mean
	a.sizes = sized(a.sizes, k)
	if SimTime(subStats, optimalSizesInto(a.sizes, subStats, p, &a.kkt)) >= tauOld {
		return appendLeaf(out, name, idxs, cs, sorted[cs.N-1])
	}
	copy(idxs, idxTmp)
	copy(vals, valTmp)
	for g := 0; g < k; g++ {
		lo, hi := bounds[g], bounds[g+1]
		out = rootSplit(name, sorted[lo:hi], vals[lo:hi], idxs[lo:hi], subStats[g], p, depth+1, out, a)
	}
	return out
}

// appendCuts appends to dst the inner bounds of the least-squares split of
// the ascending times s into at most k contiguous groups: positions c where
// s[c-1] < s[c], ascending, so equal times never straddle a cut. It appends
// nothing when all times are equal.
func appendCuts(dst []int, s []float64, k int) []int {
	if k > 2 {
		return appendCutsDP(dst, s, k)
	}
	// k = 2: the cut c minimises SSE(s[:c]) + SSE(s[c:]), that is, maximises
	// S(c)²/c + (T−S(c))²/(n−c) = T²/n + (n·S(c) − c·T)²/(n·c·(n−c)) for the
	// prefix sums S of the times less the median, which keeps the sums
	// small, and their total T. Candidates compare by cross-multiplying
	// (n·S − c·T)² and c·(n−c), so the scan divides nothing.
	n := len(s)
	shift := s[n/2]
	var total float64
	for _, v := range s {
		total += v - shift
	}
	best, bestNum, bestDen := 0, -1.0, 1.0
	var sum float64
	for c := 1; c < n; c++ {
		sum += s[c-1] - shift
		if !(s[c-1] < s[c]) {
			continue
		}
		d := float64(n)*sum - float64(c)*total
		if num, den := d*d, float64(c)*float64(n-c); num*bestDen > bestNum*den {
			best, bestNum, bestDen = c, num, den
		}
	}
	if best == 0 {
		return dst
	}
	return append(dst, best)
}

// appendCutsDP is appendCuts for k > 2: the exact 1-D k-means dynamic
// program (Wang & Song, R Journal 2011) over the m runs of equal times.
// A group's least-SSE start never moves left as its end moves right, so
// each of the k layers fills by divide and conquer in O(m log m).
func appendCutsDP(dst []int, s []float64, k int) []int {
	pos := []int{0} // run starts, then len(s)
	for c := 1; c < len(s); c++ {
		if s[c-1] < s[c] {
			pos = append(pos, c)
		}
	}
	pos = append(pos, len(s))
	m := len(pos) - 1
	if k = min(k, m); k < 2 {
		return dst
	}
	// Prefix sums of the times less the median, and of their squares.
	sum, sq := make([]float64, len(s)+1), make([]float64, len(s)+1)
	for i, v := range s {
		d := v - s[len(s)/2]
		sum[i+1], sq[i+1] = sum[i]+d, sq[i]+d*d
	}
	sse := func(i, j int) float64 { // of runs i..j-1
		d := sum[pos[j]] - sum[pos[i]]
		return sq[pos[j]] - sq[pos[i]] - d*d/float64(pos[j]-pos[i])
	}
	// prev[j] is the least SSE of the first j runs in g groups, cur[j] in
	// g+1, and from[g][j] where the last of those g+1 groups starts.
	prev, cur, from := make([]float64, m+1), make([]float64, m+1), make([][]int, k)
	for j := 1; j <= m; j++ {
		prev[j] = sse(0, j)
	}
	var fill func(g, jlo, jhi, ilo, ihi int)
	fill = func(g, jlo, jhi, ilo, ihi int) {
		if jlo > jhi {
			return
		}
		j := (jlo + jhi) / 2
		cur[j], from[g][j] = math.Inf(1), ilo
		for i := ilo; i <= min(ihi, j-1); i++ {
			if c := prev[i] + sse(i, j); c < cur[j] {
				cur[j], from[g][j] = c, i
			}
		}
		fill(g, jlo, j-1, ilo, from[g][j])
		fill(g, j+1, jhi, from[g][j], ihi)
	}
	for g := 1; g < k; g++ {
		from[g] = make([]int, m+1)
		fill(g, g+1, m, g, m-1)
		prev, cur = cur, prev
	}
	at := len(dst)
	dst = append(dst, make([]int, k-1)...)
	for g, j := k-1, m; g > 0; g-- {
		j = from[g][j]
		dst[at+g-1] = pos[j]
	}
	return dst
}

// insertionMax is the largest group sortTimes sorts by insertion: below
// it, the radix sort's histograms cost more than the comparisons they save.
const insertionMax = 48

// sortKey maps a time's bits to a uint64 whose unsigned order is the
// float order, with −0.0 before +0.0: the sign bit is flipped on a
// non-negative value and every bit on a negative one.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortTimes writes vals to dst in ascending sortKey order; tmp is scratch
// at least as long. Larger groups take an LSD radix sort over the key's
// bytes — one counting pass for all eight histograms, then one scatter pass
// per byte that is not the same for every time.
func sortTimes(dst, vals, tmp []float64) {
	n := len(vals)
	if n <= insertionMax {
		copy(dst, vals)
		for i := 1; i < n; i++ {
			v, key := dst[i], sortKey(dst[i])
			j := i
			for ; j > 0 && sortKey(dst[j-1]) > key; j-- {
				dst[j] = dst[j-1]
			}
			dst[j] = v
		}
		return
	}
	var counts [8][256]int
	for _, v := range vals {
		key := sortKey(v)
		for d := range counts {
			counts[d][byte(key>>(8*d))]++
		}
	}
	key0 := sortKey(vals[0])
	src, out := tmp[:n], dst
	copy(src, vals)
	for d := range counts {
		if counts[d][byte(key0>>(8*d))] == n {
			continue
		}
		var next [256]int
		for b := 1; b < 256; b++ {
			next[b] = next[b-1] + counts[d][b-1]
		}
		for _, v := range src {
			b := byte(sortKey(v) >> (8 * d))
			out[next[b]] = v
			next[b]++
		}
		src, out = out, src
	}
	copy(dst, src) // a no-op after an odd number of passes
}

// BuildClusters runs ROOT end to end: invocations are grouped by kernel
// name ("most large-scale GPU workloads typically consist of repetitive
// invocations of the same kernel types", §3), and each group is recursively
// split while splits keep reducing STEM's estimated simulation time.
//
// names[i] and times[i] describe invocation i. The returned leaves cover
// every invocation exactly once, ordered deterministically.
//
// It is phase 1 of the plan derivation (derive). Kernel-name groups are
// independent (a split reads its own group's times and nothing else), so
// they fan out over up to p.Workers workers, one per rootGrainRows rows: a
// profile below the grain is clustered on the calling goroutine whatever
// p.Workers says. Per-name leaf lists are flattened in sorted name order,
// making the output identical for every worker count. Every group's index
// list is a disjoint range of one shared backing array, partitioned in place
// by the recursion and capped leaf by leaf — the per-invocation allocation
// is one int, regardless of clustering depth; everything else is arena
// scratch.
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
// 215 µs); DESIGN §5.4 has the numbers. A DSE sweep plans thousands of
// 8–16-row profiles, where the fan-out was half the planner's time.
const rootGrainRows = 1024

// buildClusters is BuildClusters at an explicit worker count: phase 1 of
// the plan derivation, its leaves copied out of the arena.
func buildClusters(names []string, times []float64, p Params, workers int) []Cluster {
	a := takeArena()
	a.group(len(names), func(i int) string { return names[i] }, times, workers)
	out := slices.Clone(a.cluster(p))
	putArena(a)
	return out
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

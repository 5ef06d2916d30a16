// Package cluster implements the clustering substrate: k-means with
// k-means++ seeding (in one and many dimensions), silhouette scoring, and
// principal component analysis.
//
// ROOT (paper §3.4) recursively applies 1-D k-means (k=2) to kernel
// execution times; the PKA baseline applies N-D k-means over 12
// instruction-level metrics with a k sweep; Photon reduces basic-block
// vectors with PCA before comparing them.
//
// The k-means implementations are performance-layered (DESIGN §5.4): the
// generic path stores points row-major in one flat []float64 for cache
// locality, and the scalar path (Scratch1D, used by ROOT's recursive
// execution-time splits) additionally reuses caller-owned scratch so a
// split allocates nothing in steady state. Both fold floats and consume
// the RNG in exactly the same order as the textbook slice-of-points
// implementation, so clusterings are bit-identical to it — pinned by the
// oracle tests against the reference implementation in
// kmeans_oracle_test.go.
//
// All entry points are pure functions of their inputs and an explicit seed
// (no package-level state), so they are safe to call from many goroutines —
// ROOT's parallel clustering fan-out relies on this.
package cluster

import (
	"errors"
	"math"

	"stemroot/internal/rng"
)

// Result holds a k-means clustering outcome.
type Result struct {
	K          int
	Assignment []int       // Assignment[i] is the cluster index of point i
	Centroids  [][]float64 // K centroids
	Inertia    float64     // total within-cluster sum of squared distances
	Iterations int
}

// Options configures KMeans.
//
// Known defect, kept because every ROOT split and PKA plan depends on it:
// both k-means paths start the previous inertia at +Inf, so the stop test
// after the first Lloyd step reads +Inf <= Tol·+Inf and a run is k-means++
// seeding, one Lloyd step and the final assignment. MaxIter and Tol never
// act (TestKMeansStopsAfterOneLloydStep).
type Options struct {
	MaxIter int     // maximum Lloyd iterations (default 100)
	Tol     float64 // relative inertia improvement to keep iterating (default 1e-6)
	Seed    uint64  // RNG seed for k-means++ initialization
	Restart int     // number of random restarts, best inertia wins (default 1)
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Restart <= 0 {
		o.Restart = 1
	}
	return o
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// pickWeighted scans the weight vector subtracting from x and returns the
// first index where x drops below zero — the k-means++ weighted draw, with
// x pre-scaled to sum(dist) by the caller. When float rounding leaves the
// scan unconsumed (x never reaches zero even though x < sum(dist) in exact
// arithmetic), it falls back to the last index with nonzero weight: that
// point is a valid draw (positive probability mass), whereas the index-0
// default of a bare loop could silently re-pick an already-chosen centroid
// with zero distance.
func pickWeighted(dist []float64, x float64) int {
	last := 0
	for i, d := range dist {
		x -= d
		if x < 0 {
			return i
		}
		if d > 0 {
			last = i
		}
	}
	return last
}

// kmState is the flat working state of one generic k-means run: points are
// stored row-major (point i occupies data[i*dim : (i+1)*dim]) so the
// assignment and update loops walk contiguous memory instead of chasing a
// pointer per point. Buffers are reused across restarts.
type kmState struct {
	n, dim, k int
	data      []float64 // n*dim row-major points
	cent      []float64 // k*dim centroids
	prev      []float64 // centroids before the update step (no-move check)
	sums      []float64 // k*dim per-cluster coordinate sums (fused update)
	dist      []float64 // k-means++ nearest-centroid distances
	assign    []int
	counts    []int
}

func (s *kmState) sqDistPC(i, j int) float64 {
	var sum float64
	p := s.data[i*s.dim : (i+1)*s.dim]
	c := s.cent[j*s.dim : (j+1)*s.dim]
	for d := range p {
		diff := p[d] - c[d]
		sum += diff * diff
	}
	return sum
}

// KMeans clusters points into k groups with Lloyd's algorithm seeded by
// k-means++. All points must share one dimensionality. When k >= len(points)
// every point becomes its own cluster.
func KMeans(points [][]float64, k int, opts Options) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, errors.New("cluster: no points")
	}
	if k <= 0 {
		return nil, errors.New("cluster: k must be positive")
	}
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return nil, errors.New("cluster: inconsistent dimensionality")
		}
	}
	if k > n {
		k = n
	}
	opts = opts.withDefaults()

	s := kmState{
		n: n, dim: dim, k: k,
		data:   make([]float64, n*dim),
		cent:   make([]float64, k*dim),
		prev:   make([]float64, k*dim),
		sums:   make([]float64, k*dim),
		dist:   make([]float64, n),
		assign: make([]int, n),
		counts: make([]int, k),
	}
	for i, p := range points {
		copy(s.data[i*dim:(i+1)*dim], p)
	}

	r := rng.New(opts.Seed)
	var best *Result
	for restart := 0; restart < opts.Restart; restart++ {
		res := s.once(opts, r.Split())
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// once runs one seeded Lloyd clustering over the flat state and materializes
// a Result (fresh Assignment/Centroids — the state buffers are reused by the
// next restart).
func (s *kmState) once(opts Options, r *rng.Rand) *Result {
	s.plusPlusInit(r)
	n, dim, k := s.n, s.dim, s.k
	prevInertia := math.Inf(1)
	iters := 0
	inertia := 0.0
	moved := true

	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
		// Fused assignment + update accumulation: one pass over the points
		// assigns each (reading cent) and folds it into the sums buffer.
		// Sums, counts, and inertia accumulate in point order — exactly the
		// order the split assignment and update loops used — so the fusion
		// is invisible in the results.
		for x := range s.sums[:k*dim] {
			s.sums[x] = 0
		}
		for j := range s.counts {
			s.counts[j] = 0
		}
		inertia = 0
		for i := 0; i < n; i++ {
			bestJ, bestD := 0, math.Inf(1)
			for j := 0; j < k; j++ {
				if d := s.sqDistPC(i, j); d < bestD {
					bestJ, bestD = j, d
				}
			}
			s.assign[i] = bestJ
			inertia += bestD
			s.counts[bestJ]++
			row := s.sums[bestJ*dim : (bestJ+1)*dim]
			p := s.data[i*dim : (i+1)*dim]
			for d := range row {
				row[d] += p[d]
			}
		}
		// prev keeps the pre-update centroids so the converged-in-place case
		// can skip the final assignment pass.
		copy(s.prev, s.cent)
		copy(s.cent, s.sums[:k*dim])
		for j := 0; j < k; j++ {
			row := s.cent[j*dim : (j+1)*dim]
			if s.counts[j] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid to keep k populated clusters. Centroid rows past j
				// still hold raw sums at this point, exactly as in the
				// reference implementation.
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					if d := s.sqDistPC(i, s.assign[i]); d > farD {
						far, farD = i, d
					}
				}
				copy(row, s.data[far*dim:(far+1)*dim])
				continue
			}
			inv := 1 / float64(s.counts[j])
			for d := range row {
				row[d] *= inv
			}
		}
		moved = false
		for x := range s.cent {
			if s.cent[x] != s.prev[x] {
				moved = true
				break
			}
		}
		if prevInertia-inertia <= opts.Tol*math.Max(prevInertia, 1e-300) {
			prevInertia = inertia
			break
		}
		prevInertia = inertia
	}

	// Final assignment against the last centroids — skipped when the last
	// update step moved no centroid bitwise, in which case the in-loop
	// assignment (computed against those very centroids) and its inertia are
	// already exact.
	if moved {
		inertia = 0
		for i := 0; i < n; i++ {
			bestJ, bestD := 0, math.Inf(1)
			for j := 0; j < k; j++ {
				if d := s.sqDistPC(i, j); d < bestD {
					bestJ, bestD = j, d
				}
			}
			s.assign[i] = bestJ
			inertia += bestD
		}
	}

	centroids := make([][]float64, k)
	for j := range centroids {
		centroids[j] = append(make([]float64, 0, dim), s.cent[j*dim:(j+1)*dim]...)
	}
	assign := append(make([]int, 0, n), s.assign...)
	return &Result{K: k, Assignment: assign, Centroids: centroids, Inertia: inertia, Iterations: iters}
}

// plusPlusInit chooses k initial centroids with the k-means++ scheme: the
// first uniformly, each subsequent one with probability proportional to its
// squared distance from the nearest chosen centroid.
func (s *kmState) plusPlusInit(r *rng.Rand) {
	n, dim := s.n, s.dim
	first := r.Intn(n)
	copy(s.cent[0:dim], s.data[first*dim:(first+1)*dim])
	for i := 0; i < n; i++ {
		s.dist[i] = s.sqDistPC(i, 0)
	}
	for c := 1; c < s.k; c++ {
		total := 0.0
		for _, d := range s.dist {
			total += d
		}
		var idx int
		if total <= 0 {
			idx = r.Intn(n) // all points identical to chosen centroids
		} else {
			idx = pickWeighted(s.dist, r.Float64()*total)
		}
		copy(s.cent[c*dim:(c+1)*dim], s.data[idx*dim:(idx+1)*dim])
		for i := 0; i < n; i++ {
			if d := s.sqDistPC(i, c); d < s.dist[i] {
				s.dist[i] = d
			}
		}
	}
}

// KMeans1D clusters scalar values; a convenience wrapper used by ROOT's
// execution-time splits. Hot callers that cluster many value sets should
// hold a Scratch1D and call its KMeans method instead — same results,
// no per-call allocation.
func KMeans1D(values []float64, k int, opts Options) (*Result, error) {
	var s Scratch1D
	r1, err := s.KMeans(values, k, opts)
	if err != nil {
		return nil, err
	}
	centroids := make([][]float64, r1.K)
	for j := range centroids {
		centroids[j] = []float64{r1.Centroids[j]}
	}
	return &Result{
		K:          r1.K,
		Assignment: r1.Assignment,
		Centroids:  centroids,
		Inertia:    r1.Inertia,
		Iterations: r1.Iterations,
	}, nil
}

// Groups converts an assignment into per-cluster index lists; empty clusters
// are dropped.
func (r *Result) Groups() [][]int {
	groups := make([][]int, r.K)
	for i, a := range r.Assignment {
		groups[a] = append(groups[a], i)
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// Package cluster implements the clustering substrate of the PKA baseline:
// k-means with k-means++ seeding and silhouette scoring, which PKA applies
// over 12 instruction-level metrics with a k sweep. KMeans is the textbook
// slice-of-points Lloyd loop. (ROOT's 1-D splits need no k-means: in one
// dimension the least-squares split is an exact cut of the sorted values,
// which package core computes itself.)
//
// All entry points are pure functions of their inputs and an explicit seed
// (no package-level state), so they are safe to call from many goroutines —
// the experiments' per-workload fan-outs rely on this.
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
// Known defect, kept because every PKA plan depends on it: KMeans starts
// the previous inertia at +Inf, so the stop test after the first Lloyd step
// reads +Inf <= Tol·+Inf and a run is k-means++ seeding, one Lloyd step and
// the final assignment. MaxIter and Tol never act
// (TestKMeansStopsAfterOneLloydStep).
type Options struct {
	MaxIter int     // maximum Lloyd iterations (default 100)
	Tol     float64 // relative inertia improvement to keep iterating (default 1e-6)
	Seed    uint64  // RNG seed for k-means++ initialization
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
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

	centroids := plusPlusInit(points, k, rng.New(opts.Seed).Split())
	assign := make([]int, n)
	counts := make([]int, k)
	prevInertia := math.Inf(1)
	iters := 0

	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
		inertia := assignNearest(points, centroids, assign)
		// Update step.
		for j := range centroids {
			for d := range centroids[j] {
				centroids[j][d] = 0
			}
			counts[j] = 0
		}
		for i, p := range points {
			j := assign[i]
			counts[j]++
			for d := range p {
				centroids[j][d] += p[d]
			}
		}
		for j := range centroids {
			if counts[j] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid to keep k populated clusters. Centroids past j
				// still hold raw sums here.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := sqDist(p, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[j], points[far])
				continue
			}
			inv := 1 / float64(counts[j])
			for d := range centroids[j] {
				centroids[j][d] *= inv
			}
		}
		if prevInertia-inertia <= opts.Tol*math.Max(prevInertia, 1e-300) {
			break
		}
		prevInertia = inertia
	}

	// Final assignment against the last centroids.
	inertia := assignNearest(points, centroids, assign)
	return &Result{K: k, Assignment: assign, Centroids: centroids, Inertia: inertia, Iterations: iters}, nil
}

// assignNearest assigns every point to its nearest centroid (the lowest
// index on a tie) and returns the inertia, summed in point order.
func assignNearest(points, centroids [][]float64, assign []int) float64 {
	inertia := 0.0
	for i, p := range points {
		bestJ, bestD := 0, math.Inf(1)
		for j, c := range centroids {
			if d := sqDist(p, c); d < bestD {
				bestJ, bestD = j, d
			}
		}
		assign[i] = bestJ
		inertia += bestD
	}
	return inertia
}

// plusPlusInit chooses k initial centroids with the k-means++ scheme: the
// first uniformly, each subsequent one with probability proportional to its
// squared distance from the nearest chosen centroid.
func plusPlusInit(points [][]float64, k int, r *rng.Rand) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, append([]float64(nil), points[r.Intn(n)]...))
	dist := make([]float64, n)
	for i, p := range points {
		dist[i] = sqDist(p, centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, d := range dist {
			total += d
		}
		var idx int
		if total <= 0 {
			idx = r.Intn(n) // all points identical to chosen centroids
		} else {
			idx = pickWeighted(dist, r.Float64()*total)
		}
		c := append([]float64(nil), points[idx]...)
		centroids = append(centroids, c)
		for i, p := range points {
			if d := sqDist(p, c); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return centroids
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

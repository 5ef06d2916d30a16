package cluster

import (
	"errors"
	"math"

	"stemroot/internal/rng"
)

// Result1D is a scalar k-means outcome. Assignment, Counts and Centroids
// alias the Scratch1D's buffers: they are valid until the scratch's next
// KMeans call and must be copied by callers that need them longer.
type Result1D struct {
	K          int
	Assignment []int
	Counts     []int // Counts[j] is the number of points assigned to cluster j
	Centroids  []float64
	Inertia    float64
	Iterations int
}

// Scratch1D is the reusable working state of the scalar k-means fast path.
// The zero value is ready to use; buffers grow to the high-water mark of the
// inputs seen and are then reused, so steady-state calls allocate nothing.
// ROOT's recursive execution-time splits hold one per clustering worker.
//
// A Scratch1D is NOT safe for concurrent use.
type Scratch1D struct {
	assign []int
	dist   []float64
	cent   []float64
	prev   []float64
	sums   []float64
	counts []int
}

func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// KMeans clusters scalar values into k groups. It is the specialized
// counterpart of the generic KMeans for dimension 1: values stay in one flat
// []float64 (no per-point boxing), the distance/assignment/centroid loops
// are inlined on scalars, and all working memory comes from the scratch.
// It consumes the RNG and folds floats in exactly the order of the generic
// path, so K, Assignment, Centroids, Inertia, and Iterations are
// bit-identical to KMeans over the boxed points — pinned by
// TestKMeans1DMatchesReference.
func (s *Scratch1D) KMeans(values []float64, k int, opts Options) (Result1D, error) {
	n := len(values)
	if n == 0 {
		return Result1D{}, errors.New("cluster: no points")
	}
	if k <= 0 {
		return Result1D{}, errors.New("cluster: k must be positive")
	}
	if k > n {
		k = n
	}
	opts = opts.withDefaults()

	s.assign = growI(s.assign, n)
	s.dist = growF(s.dist, n)
	s.cent = growF(s.cent, k)
	s.prev = growF(s.prev, k)
	s.sums = growF(s.sums, k)
	s.counts = growI(s.counts, k)

	// Value-typed generators produce the exact sequence of the generic
	// path's rng.New(seed).Split() while staying off the heap.
	r := rng.Seeded(opts.Seed)
	child := rng.Seeded(r.Uint64())
	inertia, iters := s.once(values, k, opts, &child)
	return Result1D{K: k, Assignment: s.assign, Counts: s.counts, Centroids: s.cent,
		Inertia: inertia, Iterations: iters}, nil
}

// once is KMeans's Lloyd loop for dim = 1. It returns the final inertia and
// iteration count; the assignment, its per-cluster counts and the centroids
// are left in s.assign/s.counts/s.cent.
func (s *Scratch1D) once(values []float64, k int, opts Options, r *rng.Rand) (float64, int) {
	s.plusPlusInit(values, k, r)
	cent := s.cent
	prevInertia := math.Inf(1)
	iters := 0
	inertia := 0.0
	moved := true

	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
		inertia = s.assignPass(values, k)
		copy(s.prev, cent)
		copy(cent, s.sums[:k])
		for j := 0; j < k; j++ {
			if s.counts[j] == 0 {
				// Re-seed an empty cluster at the farthest point; entries past
				// j still hold raw sums, matching the generic path.
				far, farD := 0, -1.0
				for i, v := range values {
					diff := v - cent[s.assign[i]]
					if d := diff * diff; d > farD {
						far, farD = i, d
					}
				}
				cent[j] = values[far]
				continue
			}
			inv := 1 / float64(s.counts[j])
			cent[j] *= inv
		}
		moved = false
		for j := 0; j < k; j++ {
			if cent[j] != s.prev[j] {
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

	// Final assignment, skipped when the last update moved no centroid (the
	// in-loop assignment is already exact against these centroids).
	if moved {
		inertia = s.assignPass(values, k)
	}
	return inertia, iters
}

// assignPass is the fused assignment + update accumulation: one pass over
// the values assigns each point to its nearest centroid in s.cent and folds
// it into s.sums and s.counts. Sums, counts, and inertia accumulate in point
// order — exactly the order the generic path's split assignment and update
// loops use — so the fusion is invisible in the results. It returns the
// inertia.
func (s *Scratch1D) assignPass(values []float64, k int) float64 {
	if k == 2 {
		return s.assignPass2(values)
	}
	cent := s.cent
	for j := 0; j < k; j++ {
		s.sums[j] = 0
		s.counts[j] = 0
	}
	inertia := 0.0
	for i, v := range values {
		bestJ, bestD := 0, math.Inf(1)
		for j := 0; j < k; j++ {
			diff := v - cent[j]
			if d := diff * diff; d < bestD {
				bestJ, bestD = j, d
			}
		}
		s.assign[i] = bestJ
		inertia += bestD
		s.counts[bestJ]++
		s.sums[bestJ] += v
	}
	return inertia
}

// assignPass2 is assignPass for k = 2, the shape of every ROOT split (§3.4),
// with the assignment selected through integer masks instead of branches:
// which centroid a time is nearer to is close to a coin flip in stream order,
// so a branch on it mispredicts every other point.
//
// It computes what the generic j-loop computes, bit for bit (except which
// payload a sum of two different NaNs carries: that is the compiler's operand
// order, in either loop). A squared distance is +0, positive, +Inf or NaN,
// and on those the unsigned order of the bit patterns is the float order
// with every NaN above +Inf — so min(bits(d0), bits(+Inf)) is the j = 0 step
// (d0 if d0 < +Inf, else +Inf) and an unsigned compare against it is the
// j = 1 step. Each sum receives the same operands in the same order with
// +0.0 in place of the points of the other cluster, and x + (+0.0) is x for
// every x but -0.0, which a sum that starts at +0.0 can never be.
func (s *Scratch1D) assignPass2(values []float64) float64 {
	c0, c1 := s.cent[0], s.cent[1]
	infBits := math.Float64bits(math.Inf(1))
	assign := s.assign[:len(values)]
	var sum0, sum1, inertia float64
	n1 := 0
	for i, v := range values {
		diff0 := v - c0
		diff1 := v - c1
		b0 := min(math.Float64bits(diff0*diff0), infBits)
		b1 := math.Float64bits(diff1 * diff1)
		j := 0
		if b1 < b0 {
			j = 1
		}
		m := -uint64(j) // all ones when the point goes to cluster 1
		assign[i] = j
		n1 += j
		inertia += math.Float64frombits(b0 ^ (b0^b1)&m)
		vb := math.Float64bits(v)
		sum0 += math.Float64frombits(vb &^ m)
		sum1 += math.Float64frombits(vb & m)
	}
	s.sums[0], s.sums[1] = sum0, sum1
	s.counts[0], s.counts[1] = len(values)-n1, n1
	return inertia
}

// plusPlusInit is the scalar k-means++ seeding, RNG-step-compatible with
// the generic plusPlusInit. Two passes are saved without changing a single
// float operation: each draw's distance total is accumulated while the
// distance vector is produced (the generic path re-sums it afterwards —
// same additions in the same order), and the distance update after the
// final centroid is skipped entirely because nothing reads it.
func (s *Scratch1D) plusPlusInit(values []float64, k int, r *rng.Rand) {
	n := len(values)
	c0 := values[r.Intn(n)]
	s.cent[0] = c0
	total := 0.0
	for i, v := range values {
		diff := v - c0
		d := diff * diff
		s.dist[i] = d
		total += d
	}
	for c := 1; c < k; c++ {
		var idx int
		if total <= 0 {
			idx = r.Intn(n) // all points identical to chosen centroids
		} else {
			idx = pickWeighted(s.dist, r.Float64()*total)
		}
		cv := values[idx]
		s.cent[c] = cv
		if c == k-1 {
			break // the distance vector is never read again
		}
		total = 0
		for i, v := range values {
			diff := v - cv
			if d := diff * diff; d < s.dist[i] {
				s.dist[i] = d
			}
			total += s.dist[i]
		}
	}
}

package cluster

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"stemroot/internal/rng"
)

// boxed wraps scalar values as one-dimensional points for KMeans, the
// reference the scalar fast path must reproduce bit for bit.
func boxed(vals []float64) [][]float64 {
	pts := make([][]float64, len(vals))
	for i, v := range vals {
		pts[i] = []float64{v}
	}
	return pts
}

// sameResult1D reports whether a scalar clustering equals the generic one:
// K, iterations, assignment, and inertia and centroids by their bits.
func sameResult1D(got Result1D, want *Result) bool {
	if got.K != want.K || got.Iterations != want.Iterations ||
		math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		return false
	}
	for i := range want.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			return false
		}
	}
	for j := range want.Centroids {
		if math.Float64bits(got.Centroids[j]) != math.Float64bits(want.Centroids[j][0]) {
			return false
		}
	}
	return true
}

// oracleValues builds scalar inputs spanning the shapes ROOT feeds k-means:
// well-separated modes, heavy duplicates, constants, and single points.
func oracleValues(r *rng.Rand) []float64 {
	n := 1 + r.Intn(120)
	vals := make([]float64, n)
	switch r.Intn(4) {
	case 0: // bimodal
		for i := range vals {
			base := 10.0
			if i%2 == 0 {
				base = 100
			}
			vals[i] = base * (1 + 0.05*r.NormFloat64())
		}
	case 1: // heavy duplicates (ties everywhere)
		for i := range vals {
			vals[i] = float64(r.Intn(4))
		}
	case 2: // constant
		for i := range vals {
			vals[i] = 42
		}
	default: // log-normal spread
		for i := range vals {
			vals[i] = r.LogNormal(2, 1)
		}
	}
	return vals
}

// TestKMeans1DMatchesReference pins the scalar fast path bit-for-bit against
// the generic KMeans over boxed points, across input shapes, k and
// tolerances (forcing both the converged-in-place skip and the moved final
// pass), including when one scratch is reused.
func TestKMeans1DMatchesReference(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		vals := oracleValues(r)
		k := 1 + r.Intn(5)
		opts := Options{Seed: r.Uint64()}
		if r.Intn(2) == 0 {
			// Tiny tolerance + generous iterations drive Lloyd to a true
			// fixed point, exercising the skipped final-assignment branch.
			opts.Tol = 1e-300
			opts.MaxIter = 500
		}
		want, err := KMeans(boxed(vals), k, opts)
		if err != nil {
			return false
		}
		var s Scratch1D
		for rep := 0; rep < 2; rep++ {
			got, err := s.KMeans(vals, k, opts)
			if err != nil || !sameResult1D(got, want) {
				t.Errorf("seed %d rep %d: Scratch1D %+v, KMeans %+v", seed, rep, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestAssignPass2MatchesGenericLoop pins the mask-selected k = 2 pass to the
// generic centroid loop it stands in for — assignment, counts, sums and
// inertia by their bits — on the values where a select through integer
// masks could part from a float compare: signed zeros, equal centroids,
// d0 == d1 ties, infinities (whose distance to an infinite centroid is NaN)
// and NaNs of either sign, at n = 1, 2 and more. One NaN is as good as
// another: which operand's payload an add of two NaNs keeps is the
// compiler's choice of operand order, not the algorithm's.
func TestAssignPass2MatchesGenericLoop(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, 1, -1, 3, 5, 1e-320, -1e-320, math.MaxFloat64, -math.MaxFloat64, inf, -inf, nan, negNaN}

	generic := func(values []float64, c0, c1 float64) (assign []int, counts [2]int, sums [2]float64, inertia float64) {
		cent := [2]float64{c0, c1}
		assign = make([]int, len(values))
		for i, v := range values {
			bestJ, bestD := 0, math.Inf(1)
			for j, c := range cent {
				diff := v - c
				if d := diff * diff; d < bestD {
					bestJ, bestD = j, d
				}
			}
			assign[i] = bestJ
			inertia += bestD
			counts[bestJ]++
			sums[bestJ] += v
		}
		return
	}
	check := func(values []float64, c0, c1 float64) {
		t.Helper()
		s := Scratch1D{
			assign: make([]int, len(values)),
			cent:   []float64{c0, c1},
			sums:   make([]float64, 2),
			counts: make([]int, 2),
		}
		inertia := s.assignPass(values, 2)
		assign, counts, sums, wantInertia := generic(values, c0, c1)
		sameFloat := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
		}
		same := sameFloat(inertia, wantInertia)
		for j := 0; j < 2; j++ {
			same = same && s.counts[j] == counts[j] && sameFloat(s.sums[j], sums[j])
		}
		for i := range assign {
			same = same && s.assign[i] == assign[i]
		}
		if !same {
			t.Fatalf("values %v, centroids (%v, %v): mask pass assign %v counts %v sums %x inertia %x; generic loop %v %v %x %x",
				values, c0, c1, s.assign, s.counts, bitsOf(s.sums), math.Float64bits(inertia),
				assign, counts, bitsOf(sums[:]), math.Float64bits(wantInertia))
		}
	}

	for _, c0 := range special {
		for _, c1 := range special {
			for _, a := range special {
				check([]float64{a}, c0, c1) // n = 1
				for _, b := range special {
					check([]float64{a, b}, c0, c1) // n = 2
				}
			}
			check(special, c0, c1)
			check([]float64{2, 4, 4, 2, 3}, c0, c1) // 3 ties between centroids 2 and 4, 1 and 5
		}
	}
	r := rng.New(9)
	for trial := 0; trial < 2000; trial++ {
		values := make([]float64, 1+r.Intn(40))
		for i := range values {
			if r.Intn(5) == 0 {
				values[i] = special[r.Intn(len(special))]
			} else {
				values[i] = float64(r.Intn(9)) - 4 // small integers: ties and -0 sums
			}
		}
		check(values, values[r.Intn(len(values))], values[r.Intn(len(values))])
	}
}

func bitsOf(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// TestKMeans1DEdgeShapesMatchReference runs whole clusterings, k-means++
// included, through the generic KMeans on the shapes the random oracle above
// rarely draws: one and two points, signed zeros, and values placed so that
// points tie between two centroids. It also holds Result1D.Counts to the
// assignment.
func TestKMeans1DEdgeShapesMatchReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	shapes := [][]float64{
		{7},
		{negZero},
		{7, 7},
		{1, 2},
		{0, negZero},
		{negZero, 0, negZero, 0, 1, 1},
		{negZero, negZero, negZero},
		{2, 3, 4},             // 3 ties between centroids 2 and 4
		{1, 2, 3, 4, 5, 3, 3}, // ties once the centroids settle on 1.5 and 4.5
		{-1, 0, 1, negZero, 0, -1, 1},
	}
	for si, vals := range shapes {
		for seed := uint64(0); seed < 40; seed++ {
			opts := Options{Seed: seed}
			if seed%2 == 0 {
				opts.Tol, opts.MaxIter = 1e-300, 500
			}
			k := 2 + int(seed/2%2) // 3 takes the generic pass: its Counts are checked too
			want, err := KMeans(boxed(vals), k, opts)
			if err != nil {
				t.Fatal(err)
			}
			var s Scratch1D
			got, err := s.KMeans(vals, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("shape %d %v k %d seed %d", si, vals, k, seed)
			if !sameResult1D(got, want) {
				t.Fatalf("%s: Scratch1D %+v, KMeans %+v", ctx, got, want)
			}
			counts := make([]int, got.K)
			for _, a := range want.Assignment {
				counts[a]++
			}
			for j := range counts {
				if got.Counts[j] != counts[j] {
					t.Fatalf("%s: Counts %v, assignment has %v", ctx, got.Counts, counts)
				}
			}
		}
	}
}

// TestPickWeightedRoundingFallback is the regression test for the k-means++
// rounding edge case: when the weighted scan completes without the running
// remainder dropping below zero, the draw must land on the last point with
// nonzero distance — never on an index-0 point whose distance is zero (an
// already-chosen centroid).
func TestPickWeightedRoundingFallback(t *testing.T) {
	dist := []float64{0, 0, 1 << 60, 0}
	// x == sum(dist): the scan ends with x exactly 0, never negative — the
	// float-rounding shape that used to leave idx at its zero value.
	if got := pickWeighted(dist, 1<<60); got != 2 {
		t.Fatalf("unconsumed scan picked index %d, want last nonzero-distance point 2", got)
	}
	// Normal draws are unaffected.
	if got := pickWeighted([]float64{3, 1}, 3.5); got != 1 {
		t.Fatalf("pickWeighted(3.5 of [3 1]) = %d, want 1", got)
	}
	if got := pickWeighted([]float64{3, 1}, 2.5); got != 0 {
		t.Fatalf("pickWeighted(2.5 of [3 1]) = %d, want 0", got)
	}
	// All-zero weights (callers gate on total > 0, but stay safe).
	if got := pickWeighted([]float64{0, 0}, 0); got != 0 {
		t.Fatalf("pickWeighted on zero weights = %d, want 0", got)
	}
}

// TestKMeans1DScratchSteadyStateAllocs pins the fast path's allocation
// contract: after the first call grows the buffers, clustering allocates
// nothing.
func TestKMeans1DScratchSteadyStateAllocs(t *testing.T) {
	r := rng.New(3)
	vals := make([]float64, 4096)
	for i := range vals {
		base := 10.0
		if i%2 == 0 {
			base = 100
		}
		vals[i] = base * (1 + 0.05*r.NormFloat64())
	}
	var s Scratch1D
	if _, err := s.KMeans(vals, 2, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := s.KMeans(vals, 2, Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("steady-state Scratch1D.KMeans allocates %.1f objects, want 0", avg)
	}
}

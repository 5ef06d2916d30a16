package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"stemroot/internal/rng"
)

func twoBlobs(n int, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	pts := make([][]float64, 0, 2*n)
	truth := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		pts = append(pts, []float64{r.NormFloat64() * 0.5, r.NormFloat64() * 0.5})
		truth = append(truth, 0)
		pts = append(pts, []float64{10 + r.NormFloat64()*0.5, 10 + r.NormFloat64()*0.5})
		truth = append(truth, 1)
	}
	return pts, truth
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	pts, truth := twoBlobs(100, 1)
	res, err := KMeans(pts, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Assignments must perfectly match ground truth up to label swap.
	match, swapped := 0, 0
	for i, a := range res.Assignment {
		if a == truth[i] {
			match++
		} else {
			swapped++
		}
	}
	if match != len(pts) && swapped != len(pts) {
		t.Fatalf("blobs not separated: %d direct, %d swapped of %d", match, swapped, len(pts))
	}
}

// TestKMeansStopsAfterOneLloydStep pins a known defect: KMeans starts the
// previous inertia at +Inf, so the stop test after the first step reads
// +Inf <= Tol·+Inf and every run is k-means++ seeding, one Lloyd step and
// the final assignment — whatever MaxIter and Tol say. Fixing it moves every
// PKA plan, so the fix must change this test on purpose.
func TestKMeansStopsAfterOneLloydStep(t *testing.T) {
	r := rng.New(27)
	for call := 0; call < 2000; call++ {
		n, k := 2+r.Intn(300), 2+r.Intn(4)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{math.Exp(r.NormFloat64()) * float64(1+r.Intn(3)), r.NormFloat64()}
		}
		opts := Options{Seed: r.Uint64(), MaxIter: 1 + r.Intn(200), Tol: []float64{0, 1e-12, 0.5}[call%3]}
		res, err := KMeans(pts, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 1 {
			t.Fatalf("call %d (n=%d k=%d %+v): %d Lloyd steps, the defect pinned here takes 1",
				call, n, k, opts, res.Iterations)
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

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, 2, Options{}); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := KMeans([][]float64{{1}}, 0, Options{}); err == nil {
		t.Fatal("expected error on k=0")
	}
	if _, err := KMeans([][]float64{{1}, {1, 2}}, 1, Options{}); err == nil {
		t.Fatal("expected error on inconsistent dims")
	}
}

func TestKMeansKExceedsN(t *testing.T) {
	pts := [][]float64{{1}, {2}, {3}}
	res, err := KMeans(pts, 10, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("k should clamp to n=3, got %d", res.K)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("k=n should give zero inertia, got %v", res.Inertia)
	}
}

func TestKMeansInvariants(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(100)
		k := 1 + r.Intn(5)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{r.NormFloat64(), r.NormFloat64()}
		}
		res, err := KMeans(pts, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		// Every point assigned to a valid cluster; inertia non-negative;
		// every point's assigned centroid is its nearest centroid.
		if len(res.Assignment) != n || res.Inertia < 0 {
			return false
		}
		for i, a := range res.Assignment {
			if a < 0 || a >= res.K {
				return false
			}
			da := sqDist(pts[i], res.Centroids[a])
			for _, c := range res.Centroids {
				if sqDist(pts[i], c) < da-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts, _ := twoBlobs(50, 4)
	a, _ := KMeans(pts, 3, Options{Seed: 7})
	b, _ := KMeans(pts, 3, Options{Seed: 7})
	if a.Inertia != b.Inertia {
		t.Fatal("same seed gave different inertia")
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("same seed gave different assignment")
		}
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{3, 3}
	}
	res, err := KMeans(pts, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Fatalf("identical points should have zero inertia, got %v", res.Inertia)
	}
}

func TestGroupsPartition(t *testing.T) {
	pts, _ := twoBlobs(30, 6)
	res, _ := KMeans(pts, 3, Options{Seed: 6})
	groups := res.Groups()
	seen := make(map[int]bool)
	for _, g := range groups {
		if len(g) == 0 {
			t.Fatal("Groups returned empty group")
		}
		for _, i := range g {
			if seen[i] {
				t.Fatalf("index %d in two groups", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("groups cover %d of %d points", len(seen), len(pts))
	}
}

func TestSilhouetteWellSeparated(t *testing.T) {
	pts, truth := twoBlobs(50, 7)
	s := Silhouette(pts, truth, 2)
	if s < 0.9 {
		t.Fatalf("well-separated blobs silhouette = %v, want > 0.9", s)
	}
	// Random assignment should score much worse.
	r := rng.New(8)
	randAsn := make([]int, len(pts))
	for i := range randAsn {
		randAsn[i] = r.Intn(2)
	}
	if sr := Silhouette(pts, randAsn, 2); sr >= s {
		t.Fatalf("random assignment silhouette %v >= true %v", sr, s)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	if Silhouette(nil, nil, 2) != 0 {
		t.Fatal("empty silhouette should be 0")
	}
	if Silhouette([][]float64{{1}, {2}}, []int{0, 0}, 1) != 0 {
		t.Fatal("k=1 silhouette should be 0")
	}
}

func TestSweepKFindsTwo(t *testing.T) {
	pts, _ := twoBlobs(60, 9)
	res, err := SweepK(pts, 1, 6, Options{Seed: 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("sweep chose k=%d for two blobs", res.K)
	}
}

func TestSweepKSubsampled(t *testing.T) {
	pts, _ := twoBlobs(300, 10)
	res, err := SweepK(pts, 1, 5, Options{Seed: 10}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("subsampled sweep chose k=%d", res.K)
	}
}

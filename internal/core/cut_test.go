package core

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"stemroot/internal/rng"
)

// cutShapes are the groups the exact-cut tests run on, at n rows: ties,
// long constant runs, −0.0 mixed with +0.0, and a continuous bimodal spread.
func cutShapes(r *rng.Rand, n int) map[string][]float64 {
	shapes := map[string][]float64{}
	add := func(name string, f func(i int) float64) {
		s := make([]float64, n)
		for i := range s {
			s[i] = f(i)
		}
		shapes[name] = s
	}
	add("ties", func(int) float64 { return float64(r.Intn(4)) })
	add("constant runs", func(i int) float64 {
		if i%7 == 0 {
			return 2 + r.Float64()
		}
		return []float64{1, 5}[r.Intn(2)]
	})
	add("signed zeros", func(int) float64 {
		return []float64{math.Copysign(0, -1), 0, 0.5, 3}[r.Intn(4)]
	})
	add("bimodal", func(i int) float64 {
		if r.Intn(3) == 0 {
			return 100 * (1 + 0.05*r.NormFloat64())
		}
		return r.LogNormal(1, 0.5)
	})
	return shapes
}

// runStarts returns the positions c where s[c-1] < s[c], with 0 first and
// len(s) last: the bounds a cut may take.
func runStarts(s []float64) []int {
	pos := []int{0}
	for c := 1; c < len(s); c++ {
		if s[c-1] < s[c] {
			pos = append(pos, c)
		}
	}
	return append(pos, len(s))
}

// leastSSE is the least within-group SSE over every split of the ascending
// s into min(k, runs) groups at run bounds, each group's SSE in two passes:
// an exhaustive dynamic program over the table of every run range's SSE
// (refSSE).
func leastSSE(s []float64, k int) float64 {
	pos := runStarts(s)
	m := len(pos) - 1
	k = min(k, m)
	seg := make([][]float64, m+1)
	for i := range seg {
		seg[i] = make([]float64, m+1)
		for j := i + 1; j <= m; j++ {
			seg[i][j] = refSSE(s[pos[i]:pos[j]])
		}
	}
	best := seg[0] // best[j]: the first j runs in g groups
	for g := 2; g <= k; g++ {
		next := make([]float64, m+1)
		for j := range next {
			next[j] = math.Inf(1)
			for i := g - 1; i < j; i++ {
				next[j] = min(next[j], best[i]+seg[i][j])
			}
		}
		best = next
	}
	return best[m]
}

// leastSSE2 is leastSSE for k = 2 at any size: every cut is screened with
// Welford prefix and suffix moments, and each cut within a relative 1e-9 of
// the screened least is recomputed in two passes — Welford's own error is
// orders of magnitude below that margin, so no other cut can be lower.
func leastSSE2(s []float64) float64 {
	n := len(s)
	pre, suf := make([]float64, n+1), make([]float64, n+1)
	welford := func(out []float64, at func(i int) float64) {
		var mean, m2 float64
		for i := 1; i <= n; i++ {
			v := at(i - 1)
			d := v - mean
			mean += d / float64(i)
			m2 += d * (v - mean)
			out[i] = m2
		}
	}
	welford(pre, func(i int) float64 { return s[i] })
	welford(suf, func(i int) float64 { return s[n-1-i] })
	pos := runStarts(s)
	screened := math.Inf(1)
	for _, c := range pos[1 : len(pos)-1] {
		screened = min(screened, pre[c]+suf[n-c])
	}
	least := math.Inf(1)
	for _, c := range pos[1 : len(pos)-1] {
		if pre[c]+suf[n-c] <= screened*(1+1e-9) {
			least = min(least, refSSE(s[:c])+refSSE(s[c:]))
		}
	}
	return least
}

// TestRootCutsAreLeastSquares: the cuts a split takes are the exact 1-D
// k-means optimum. Their within-group SSE, recomputed in two passes, is the
// least over every placement of the cuts, to a relative 1e-12 — on ties,
// constant runs, mixed signed zeros and a continuous spread, at 8 rows, at
// the insertion-sort bound and one past it, and at 10⁵ rows, for k = 2, 3
// and 4 (k = 2 alone at 10⁵ rows, where the exhaustive check is quadratic).
// Cuts fall only between distinct times, ascending, one fewer than the
// groups the distinct times allow.
func TestRootCutsAreLeastSquares(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{8, insertionMax, insertionMax + 1, 200, 100000} {
		trials := 1
		if n <= 2*insertionMax {
			trials = 40
		}
		for trial := range trials {
			for name, vals := range cutShapes(r, n) {
				s := make([]float64, n)
				sortTimes(s, vals, make([]float64, n))
				runs := len(runStarts(s)) - 1
				for _, k := range []int{2, 3, 4} {
					if n > 1000 && k > 2 {
						continue
					}
					ctx := fmt.Sprintf("%s, %d rows, trial %d, k=%d", name, n, trial, k)
					cuts := appendCuts(nil, s, k)
					if want := min(k, runs) - 1; len(cuts) != want {
						t.Fatalf("%s: %d cuts %v, want %d", ctx, len(cuts), cuts, want)
					}
					bounds := append(append([]int{0}, cuts...), n)
					var got float64
					for g := range len(bounds) - 1 {
						lo, hi := bounds[g], bounds[g+1]
						if lo >= hi || (lo > 0 && !(s[lo-1] < s[lo])) {
							t.Fatalf("%s: cuts %v are not ascending bounds between distinct times", ctx, cuts)
						}
						got += refSSE(s[lo:hi])
					}
					var least float64
					if k == 2 {
						least = leastSSE2(s)
					} else {
						least = leastSSE(s, k)
					}
					if got > least*(1+1e-12) {
						t.Fatalf("%s: cuts %v leave SSE %v, the least is %v", ctx, cuts, got, least)
					}
				}
			}
		}
	}
}

// TestSortTimesMatchesComparisonSort: the radix sort and the insertion sort
// under it order times ascending, −0.0 before +0.0, bit for bit as a
// comparison sort does — also times a few ulps apart, which differ in their
// lowest byte alone — and leave their input alone.
func TestSortTimesMatchesComparisonSort(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{0, 1, 2, 8, insertionMax, insertionMax + 1, 1000, 100000} {
		shapes := cutShapes(r, n)
		ulps := make([]float64, n)
		for i := range ulps {
			ulps[i] = math.Float64frombits(math.Float64bits(7.25) + uint64(r.Intn(300)))
		}
		shapes["ulps apart"] = ulps
		for name, vals := range shapes {
			for i := range vals[:len(vals)/3] {
				vals[i] = -vals[i] // negative times order too
			}
			in := slices.Clone(vals)
			got := make([]float64, n)
			sortTimes(got, vals, make([]float64, n+3))
			want := slices.Clone(vals)
			slices.SortFunc(want, func(a, b float64) int {
				if c := cmp.Compare(a, b); c != 0 {
					return c
				}
				switch sa, sb := math.Signbit(a), math.Signbit(b); {
				case sa && !sb:
					return -1 // −0.0 first
				case sb && !sa:
					return 1
				}
				return 0
			})
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, %d rows: position %d holds %v, want %v", name, n, i, got[i], want[i])
				}
				if math.Float64bits(in[i]) != math.Float64bits(vals[i]) {
					t.Fatalf("%s, %d rows: sortTimes changed its input", name, n)
				}
			}
		}
	}
	same := make([]float64, 500) // every byte constant: no pass
	for i := range same {
		same[i] = 2.5
	}
	got := make([]float64, len(same))
	sortTimes(got, same, make([]float64, len(same)))
	if !slices.Equal(got, same) {
		t.Fatal("a group of equal times did not sort to itself")
	}
}

// TestClusteringIgnoresSeed: ROOT's leaves are a function of the times
// alone — two seeds give the same leaves, members and statistics, at every
// split factor.
func TestClusteringIgnoresSeed(t *testing.T) {
	names, times := oracleProfile(6000, 4)
	for _, k := range []int{2, 3, 4} {
		p := defaultP()
		p.SplitK = k
		p.Seed = 1
		a := BuildClusters(names, times, p)
		p.Seed = 0xdecafbad
		b := BuildClusters(names, times, p)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("k=%d: seeds 1 and 0xdecafbad give different leaves", k)
		}
		if len(a) <= len(uniqueNames(names)) {
			t.Fatalf("k=%d: %d leaves for %d names, the profile should split", k, len(a), len(uniqueNames(names)))
		}
	}
}

func uniqueNames(names []string) []string {
	u := slices.Clone(names)
	slices.Sort(u)
	return slices.Compact(u)
}

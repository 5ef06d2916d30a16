package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams from different seeds collided %d/100 times", same)
	}
}

func TestDeriveIsStable(t *testing.T) {
	x := Derive(7, 1, 2, 3)
	y := Derive(7, 1, 2, 3)
	if x != y {
		t.Fatal("Derive not deterministic")
	}
	if Derive(7, 1, 2, 3) == Derive(7, 1, 2, 4) {
		t.Fatal("Derive ignores labels")
	}
	if Derive(7, 1, 2) == Derive(8, 1, 2) {
		t.Fatal("Derive ignores seed")
	}
}

func TestDeriveLabelOrderMatters(t *testing.T) {
	if Derive(1, 2, 3) == Derive(1, 3, 2) {
		t.Fatal("Derive should be order-sensitive")
	}
}

func TestHashString(t *testing.T) {
	if HashString("gemm") == HashString("sgemm") {
		t.Fatal("hash collision on simple names")
	}
	if HashString("") == 0 {
		t.Fatal("FNV offset basis lost")
	}
	if HashString("abc") != HashString("abc") {
		t.Fatal("HashString not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(6)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(7)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("log-normal value not positive: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		r := New(seed)
		n := 1 + int(seed%50)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(10)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split children correlated: %d/100 equal draws", same)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"

	"stemroot/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestSumKahan(t *testing.T) {
	// 1e16 + many small values: naive summation drops them all.
	xs := make([]float64, 1001)
	xs[0] = 1e16
	for i := 1; i <= 1000; i++ {
		xs[i] = 1
	}
	if got := Sum(xs); got != 1e16+1000 {
		t.Fatalf("Kahan sum lost precision: got %v", got)
	}
}

func TestMeanAndVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Fatalf("sample variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 || CoV(nil) != 0 {
		t.Fatal("empty-input moments should be zero")
	}
}

func TestCoV(t *testing.T) {
	xs := []float64{10, 10, 10, 10}
	if got := CoV(xs); got != 0 {
		t.Fatalf("constant data CoV = %v, want 0", got)
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Fatal("zero-mean CoV should be 0, not NaN")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(200)
		xs := make([]float64, n)
		var o Online
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
			o.Add(xs[i])
		}
		return almostEqual(o.Mean(), Mean(xs), 1e-8) &&
			almostEqual(o.StdDev(), StdDev(xs), 1e-8) &&
			almostEqual(o.Sum(), Sum(xs), 1e-8) && o.N() == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

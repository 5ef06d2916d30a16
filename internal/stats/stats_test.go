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
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatal("Min(nil) should return ErrEmpty")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatal("Max(nil) should return ErrEmpty")
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
		s := o.Summary()
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return almostEqual(s.Mean, Mean(xs), 1e-8) &&
			almostEqual(s.StdDev, StdDev(xs), 1e-8) &&
			s.Min == mn && s.Max == mx && s.N == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almostEqual(s.StdDev, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("summary stddev = %v", s.StdDev)
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDF(t *testing.T) {
	if got := NormalCDF(0, 0, 1); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("cdf(0) = %v, want 0.5", got)
	}
	if got := NormalCDF(1.959963985, 0, 1); !almostEqual(got, 0.975, 1e-6) {
		t.Fatalf("cdf(1.96) = %v, want 0.975", got)
	}
	if NormalCDF(-1, 0, 0) != 0 || NormalCDF(1, 0, 0) != 1 {
		t.Fatal("degenerate cdf wrong")
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.995, 2.5758293035489004},
		{0.841344746068543, 1.0},
		{0.025, -1.959963984540054},
	}
	for _, c := range cases {
		got, err := NormalQuantile(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Fatalf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileErrors(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2, math.NaN()} {
		if _, err := NormalQuantile(p); err == nil {
			t.Fatalf("expected error for p=%v", p)
		}
		if _, err := ZScore(p); err == nil {
			t.Fatalf("expected error for confidence %v", p)
		}
		if _, err := TScore(p, 5); err == nil {
			t.Fatalf("expected t-score error for confidence %v", p)
		}
	}
	// The last float64 below 1 is a confidence whose 1-α/2 rounds to 1.
	if _, err := ZScore(math.Nextafter(1, 0)); err == nil {
		t.Fatal("expected error for the last confidence below 1")
	}
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		p := 0.001 + 0.998*float64(seed%100000)/100000
		x, err := NormalQuantile(p)
		if err != nil {
			return false
		}
		return almostEqual(NormalCDF(x, 0, 1), p, 1e-10)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZScore95(t *testing.T) {
	z, err := ZScore(0.95)
	if err != nil {
		t.Fatal(err)
	}
	// The paper rounds this to 1.96.
	if !almostEqual(z, 1.959963984540054, 1e-9) {
		t.Fatalf("z(95%%) = %v", z)
	}
}

func TestZScoreMonotone(t *testing.T) {
	prev := 0.0
	for _, conf := range []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999} {
		z := MustZScore(conf)
		if z <= prev {
			t.Fatalf("z-score not increasing at confidence %v", conf)
		}
		prev = z
	}
}

func TestMustZScorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustZScore(1.5)
}

// TestWilsonKnownValues checks the Wilson score interval against the 95 %
// intervals Newcombe (Statistics in Medicine, 1998, Table I) tabulates to
// four places, and at its edges.
func TestWilsonKnownValues(t *testing.T) {
	for _, c := range []struct {
		k, n   int
		lo, hi float64
	}{
		{81, 263, 0.2553, 0.3662},
		{15, 148, 0.0624, 0.1605},
		{0, 20, 0, 0.1611},
		{1, 29, 0.0061, 0.1718},
		{29, 29, 0.8830, 1},
	} {
		lo, hi := Wilson(c.k, c.n, 1.959963984540054)
		if math.Abs(lo-c.lo) > 5e-5 || math.Abs(hi-c.hi) > 5e-5 {
			t.Errorf("Wilson(%d, %d) = [%.5f, %.5f], want [%.4f, %.4f]", c.k, c.n, lo, hi, c.lo, c.hi)
		}
	}
	if lo, hi := Wilson(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("Wilson with no trials = [%v, %v], want [0, 1]", lo, hi)
	}
}

package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"stemroot/internal/rng"
)

func TestHistogramBasic(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := NewHistogram(xs, 5)
	if h.Total != 10 {
		t.Fatalf("total = %d", h.Total)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 10 {
		t.Fatalf("counts sum to %d, want 10", sum)
	}
	for _, c := range h.Counts {
		if c != 2 {
			t.Fatalf("uniform data binned unevenly: %v", h.Counts)
		}
	}
}

func TestHistogramCountsConserved(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 42
		}
		bins := 1 + r.Intn(40)
		h := NewHistogram(xs, bins)
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == n && h.Total == n && len(h.Counts) == bins
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{5, 5, 5}, 10)
	if h.Counts[0] != 3 {
		t.Fatalf("identical values should land in bin 0: %v", h.Counts)
	}
	empty := NewHistogram(nil, 4)
	if empty.Total != 0 {
		t.Fatal("empty histogram should have total 0")
	}
}

func TestRender(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 2, 3}, 3)
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Fatal("render produced no bars")
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Fatalf("render produced %d lines, want 3", lines)
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	r := rng.New(13)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	// Integrate density over a wide grid with the trapezoid rule.
	const lo, hi, n = -6.0, 6.0, 601
	grid := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range grid {
		grid[i] = lo + float64(i)*step
	}
	dens := KDE(xs, grid, 0)
	integral := 0.0
	for i := 1; i < n; i++ {
		integral += 0.5 * (dens[i-1] + dens[i]) * step
	}
	if integral < 0.98 || integral > 1.02 {
		t.Fatalf("KDE integral = %v, want ~1", integral)
	}
}

func TestKDEEmpty(t *testing.T) {
	out := KDE(nil, []float64{0, 1}, 0)
	if out[0] != 0 || out[1] != 0 {
		t.Fatal("empty-sample KDE should be zero")
	}
}

func TestSilvermanBandwidthPositive(t *testing.T) {
	r := rng.New(14)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if bw := SilvermanBandwidth(xs); bw <= 0 {
		t.Fatalf("bandwidth = %v", bw)
	}
	if SilvermanBandwidth([]float64{1}) != 0 {
		t.Fatal("single point bandwidth should be 0")
	}
	if SilvermanBandwidth([]float64{2, 2, 2}) != 0 {
		t.Fatal("constant data bandwidth should be 0")
	}
}

func TestCountModes(t *testing.T) {
	r := rng.New(15)
	var bimodal, trimodal, unimodal []float64
	for i := 0; i < 400; i++ {
		bimodal = append(bimodal, 5+r.NormFloat64()*0.3, 15+r.NormFloat64()*0.3)
		trimodal = append(trimodal, 5+r.NormFloat64()*0.2, 15+r.NormFloat64()*0.2, 25+r.NormFloat64()*0.2)
		unimodal = append(unimodal, 10+r.NormFloat64())
	}
	if got := CountModes(bimodal, 128, 0.1); got != 2 {
		t.Fatalf("bimodal modes = %d, want 2", got)
	}
	if got := CountModes(trimodal, 128, 0.1); got != 3 {
		t.Fatalf("trimodal modes = %d, want 3", got)
	}
	if got := CountModes(unimodal, 128, 0.1); got != 1 {
		t.Fatalf("unimodal modes = %d, want 1", got)
	}
	if got := CountModes([]float64{3, 3, 3}, 64, 0.1); got != 1 {
		t.Fatalf("constant modes = %d, want 1", got)
	}
	if got := CountModes(nil, 64, 0.1); got != 0 {
		t.Fatalf("empty modes = %d, want 0", got)
	}
}

package hwmodel

import (
	"math"
	"slices"
	"testing"

	"stemroot/internal/rng"
	"stemroot/internal/stats"
	"stemroot/internal/trace"
)

func computeBound() trace.Invocation {
	return trace.Invocation{
		Seq:           1,
		Name:          "sgemm",
		Grid:          trace.Dim3{X: 512},
		Block:         trace.Dim3{X: 256},
		InstrsPerWarp: 40000,
		Latent: trace.Latent{
			MemIntensity:   0.1,
			FootprintBytes: 2 << 20,
			Locality:       0.9,
			ComputeWork:    8e9,
		},
	}
}

func memoryBound() trace.Invocation {
	return trace.Invocation{
		Seq:           2,
		Name:          "embedding_gather",
		Grid:          trace.Dim3{X: 512},
		Block:         trace.Dim3{X: 256},
		InstrsPerWarp: 20000,
		Latent: trace.Latent{
			MemIntensity:   0.9,
			FootprintBytes: 2 << 30,
			Locality:       0.1,
			RandomAccess:   0.8,
			ComputeWork:    1e7,
		},
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"rtx2080", "h100", "h200"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Name != name {
			t.Fatalf("device name mismatch: %q", d.Name)
		}
	}
	if _, err := ByName("mi300x"); err == nil {
		t.Fatal("expected error for unknown device")
	}
}

func TestTimePositiveAndDeterministic(t *testing.T) {
	m := New(RTX2080, 42)
	inv := computeBound()
	a := m.Time(&inv)
	b := m.Time(&inv)
	if a <= 0 {
		t.Fatalf("time = %v", a)
	}
	if a != b {
		t.Fatal("timing not deterministic")
	}
}

func TestFasterDeviceIsFaster(t *testing.T) {
	inv := computeBound()
	slow := New(RTX2080, 1).Time(&inv)
	fast := New(H100, 1).Time(&inv)
	if fast >= slow {
		t.Fatalf("H100 (%v µs) should beat RTX2080 (%v µs) on compute-bound work", fast, slow)
	}
}

func TestH200HelpsMemoryBoundMoreThanCompute(t *testing.T) {
	mb := memoryBound()
	cb := computeBound()
	h100 := New(H100, 1)
	h200 := New(H200, 1)
	memGain := h100.baseTime(&mb) / h200.baseTime(&mb)
	compGain := h100.baseTime(&cb) / h200.baseTime(&cb)
	if memGain <= compGain {
		t.Fatalf("H200 bandwidth upgrade should help memory-bound work more: mem %v vs comp %v", memGain, compGain)
	}
	if memGain < 1.1 {
		t.Fatalf("memory-bound speedup on H200 only %v", memGain)
	}
}

func TestJitterWidthTracksMemoryIntensity(t *testing.T) {
	m := New(RTX2080, 7)
	cb, mb := computeBound(), memoryBound()
	if m.jitterSigma(&cb) >= m.jitterSigma(&mb) {
		t.Fatal("memory-bound kernel should have wider jitter")
	}

	// Empirically: CoV of repeated draws must be far larger for the
	// memory-bound kernel (paper Figure 1: max_pool wide vs sgemm narrow).
	covOf := func(base trace.Invocation) float64 {
		times := make([]float64, 2000)
		for i := range times {
			inv := base
			inv.Seq = i
			times[i] = m.Time(&inv)
		}
		return stats.CoV(times)
	}
	covCompute, covMemory := covOf(cb), covOf(mb)
	if covMemory < 2*covCompute {
		t.Fatalf("memory CoV %v should dwarf compute CoV %v", covMemory, covCompute)
	}
}

func TestJitterUnbiased(t *testing.T) {
	// The mean of many jittered draws must converge to the base time.
	m := New(RTX2080, 9)
	base := computeBound()
	want := m.baseTime(&base)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		inv := base
		inv.Seq = i
		sum += m.Time(&inv)
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("mean time %v deviates from base %v", got, want)
	}
}

func TestContextsSeparateThroughLatent(t *testing.T) {
	// Two contexts with different work sizes must produce well-separated
	// time distributions (the multi-peak mechanism of Figure 1).
	m := New(RTX2080, 11)
	var small, large []float64
	for i := 0; i < 500; i++ {
		inv := computeBound()
		inv.Seq = i
		small = append(small, m.Time(&inv))
		inv.Seq = i + 1000
		inv.Latent.ComputeWork *= 4
		large = append(large, m.Time(&inv))
	}
	maxSmall, minLarge := slices.Max(small), slices.Min(large)
	if maxSmall >= minLarge {
		t.Fatalf("context peaks overlap: max(small)=%v min(large)=%v", maxSmall, minLarge)
	}
}

func TestProfileShape(t *testing.T) {
	w := &trace.Workload{Name: "t", Seed: 3}
	for i := 0; i < 10; i++ {
		inv := computeBound()
		inv.Seq = i
		w.Invs = append(w.Invs, inv)
	}
	p := New(RTX2080, w.Seed).Profile(w)
	if err := p.Validate(w); err != nil {
		t.Fatal(err)
	}
	if p.Device != "rtx2080" {
		t.Fatalf("device = %q", p.Device)
	}
	if p.TotalTime() <= 0 {
		t.Fatal("non-positive total")
	}
}

// TestProfileAllocsConstant pins that profiling costs the profile and nothing
// per invocation (Time used to build a heap generator and re-hash the device
// name for each), and that the jitter stream is still the one
// rng.New(Derive(seed, seq, HashString(name))) draws.
func TestProfileAllocsConstant(t *testing.T) {
	workload := func(n int) *trace.Workload {
		w := &trace.Workload{Name: "t", Seed: 3}
		for i := 0; i < n; i++ {
			inv := memoryBound()
			inv.Seq = i
			w.Invs = append(w.Invs, inv)
		}
		return w
	}
	m := New(RTX2080, 3)
	small, large := workload(4), workload(400)
	a := testing.AllocsPerRun(10, func() { m.Profile(small) })
	b := testing.AllocsPerRun(10, func() { m.Profile(large) })
	if a != b || a > 2 {
		t.Fatalf("Profile allocates %.0f objects at 4 invocations and %.0f at 400, want the same two", a, b)
	}
	for i, got := range m.Profile(small).TimeUS {
		inv := &small.Invs[i]
		sigma := m.jitterSigma(inv)
		r := rng.New(rng.Derive(m.Seed, uint64(inv.Seq), rng.HashString(RTX2080.Name)))
		if want := m.baseTime(inv) * r.LogNormal(-sigma*sigma/2, sigma); got != want {
			t.Fatalf("invocation %d: time %v, reference stream gives %v", i, got, want)
		}
	}
}

func TestMicroMetricsShape(t *testing.T) {
	m := New(RTX2080, 5)
	inv := memoryBound()
	mm := m.Micro(&inv)
	for i, v := range mm {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("metric %s = %v", MicroNames[i], v)
		}
	}
	// Rates stay in [0,1].
	for i, isCount := range CountMetrics {
		if !isCount && mm[i] > 1 {
			t.Fatalf("rate metric %s = %v > 1", MicroNames[i], mm[i])
		}
	}
	// Deterministic.
	if m.Micro(&inv) != mm {
		t.Fatal("micro metrics not deterministic")
	}
}

func TestMicroMetricsReflectLatent(t *testing.T) {
	m := New(RTX2080, 6)
	cb, mb := computeBound(), memoryBound()
	mmC, mmM := m.Micro(&cb), m.Micro(&mb)
	if mmM[7] >= mmC[7] {
		t.Fatalf("low-locality kernel should have lower L2 hit rate: %v vs %v", mmM[7], mmC[7])
	}
	if mmC[9] <= mmM[9] {
		t.Fatal("compute-bound kernel should have more FP32 ops")
	}
}

func TestLaunchOverheadFloor(t *testing.T) {
	// A trivial kernel's time approaches launch overhead.
	inv := trace.Invocation{
		Seq: 1, Name: "noop",
		Grid: trace.Dim3{X: 1}, Block: trace.Dim3{X: 32},
		Latent: trace.Latent{ComputeWork: 1, FootprintBytes: 64, Locality: 1},
	}
	m := New(RTX2080, 8)
	if got := m.baseTime(&inv); got < RTX2080.LaunchOverheadUS {
		t.Fatalf("time %v below launch overhead", got)
	} else if got > RTX2080.LaunchOverheadUS*1.5 {
		t.Fatalf("trivial kernel time %v too far above overhead", got)
	}
}

// samePow reports whether got is want bit for bit (any NaN matching any NaN).
func samePow(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// TestBaseTimeForms pins pow4 and root4 to the math.Pow calls they replace,
// on each side of every range edge and on random values across the range
// baseTime feeds them and across all bit patterns.
func TestBaseTimeForms(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-300, 1e-70, math.Nextafter(1e-70, 1), 1e-69,
		0.5, 1, 2, 3.7, 1e69, math.Nextafter(1e70, 0), 1e70, 1e71, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -1, -2.5, -1e-70,
	}
	r := rng.New(31)
	for i := 0; i < 200000; i++ {
		edges = append(edges, math.Exp(r.Float64()*400-200), math.Float64frombits(r.Uint64()))
	}
	for _, v := range edges {
		if got, want := pow4(v), math.Pow(v, 4); !samePow(got, want) {
			t.Fatalf("pow4(%v) = %v, math.Pow = %v", v, got, want)
		}
		if got, want := root4(v), math.Pow(v, 0.25); !samePow(got, want) {
			t.Fatalf("root4(%v) = %v, math.Pow = %v", v, got, want)
		}
	}
}

// FuzzBaseTimeForms: the same equivalence on any bit pattern.
func FuzzBaseTimeForms(f *testing.F) {
	for _, v := range []float64{0, 1e-70, 1e70, 3.7, math.MaxFloat64, math.Inf(1), math.NaN(), -2} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if got, want := pow4(v), math.Pow(v, 4); !samePow(got, want) {
			t.Fatalf("pow4(%v) = %v, math.Pow = %v", v, got, want)
		}
		if got, want := root4(v), math.Pow(v, 0.25); !samePow(got, want) {
			t.Fatalf("root4(%v) = %v, math.Pow = %v", v, got, want)
		}
	})
}

package gpu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"stemroot/internal/kernelgen"
	"stemroot/internal/trace"
)

func specFor(memIntensity, locality float64, footprint int64, work int64) *kernelgen.Spec {
	inv := trace.Invocation{
		Seq:   1,
		Name:  "k",
		Grid:  trace.Dim3{X: 32},
		Block: trace.Dim3{X: 128},
		Latent: trace.Latent{
			MemIntensity:   memIntensity,
			FootprintBytes: footprint,
			Locality:       locality,
			ComputeWork:    work,
		},
		BBVSeed: 7,
	}
	s := kernelgen.FromInvocation(&inv, kernelgen.DefaultLimits())
	return &s
}

func mustSim(t testing.TB, cfg Config) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("second access missed")
	}
	if !c.Access(63) {
		t.Fatal("same line should hit")
	}
	if c.Access(64) {
		t.Fatal("next line should miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", c.HitRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 2 sets (256B). Lines 0, 2, 4 map to set 0.
	c := NewCache(CacheConfig{SizeBytes: 256, LineBytes: 64, Ways: 2})
	addr := func(line int) uint64 { return uint64(line * 64) }
	c.Access(addr(0))
	c.Access(addr(2))
	c.Access(addr(0)) // 0 is now MRU
	c.Access(addr(4)) // evicts 2 (LRU)
	if !c.Access(addr(0)) {
		t.Fatal("line 0 should survive")
	}
	if c.Access(addr(2)) {
		t.Fatal("line 2 should have been evicted")
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	c.Access(0)
	c.Flush()
	if c.Access(0) {
		t.Fatal("access after flush should miss")
	}
}

func TestCacheHitRateMonotoneInSize(t *testing.T) {
	// Property: for a fixed access stream bigger caches never hit less.
	stream := func(seed uint64) []uint64 {
		r := seed
		addrs := make([]uint64, 4000)
		cursor := uint64(0)
		for i := range addrs {
			r = r*6364136223846793005 + 1
			if r%100 < 60 {
				cursor += 128
			} else {
				cursor = (r >> 20) % (1 << 20)
			}
			addrs[i] = cursor % (1 << 20)
		}
		return addrs
	}
	check := func(seed uint64) bool {
		addrs := stream(seed)
		prev := -1.0
		for _, size := range []int64{8 << 10, 32 << 10, 128 << 10, 1 << 20} {
			c := NewCache(CacheConfig{SizeBytes: size, LineBytes: 128, Ways: 8})
			for _, a := range addrs {
				c.Access(a)
			}
			hr := c.HitRate()
			if hr < prev-0.02 { // small tolerance for mapping effects
				return false
			}
			prev = hr
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Baseline().Validate(); err != nil {
		t.Fatal(err)
	}
	// Degenerate but defined: no dependency stall at all (every ready cycle
	// ties, so the launch id carries the whole event order), infinite
	// bandwidth (zero service time), zero latencies.
	for name, mut := range map[string]func(*Config){
		"DependencyFraction=0":  func(c *Config) { c.DependencyFraction = 0 },
		"DRAMBytesPerCycle=Inf": func(c *Config) { c.DRAMBytesPerCycle = math.Inf(1) },
		"latencies=0": func(c *Config) {
			c.ALULatency, c.FP16Latency, c.SFULatency, c.L1Latency, c.L2Latency, c.DRAMLatency = 0, 0, 0, 0, 0, 0
		},
	} {
		cfg := Baseline()
		mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
	// Rejected, naming the field: structural zeros and every timing field
	// whose derived constant would be negative, NaN or infinite.
	nan := math.NaN()
	for _, tc := range []struct {
		field string
		mut   func(*Config)
	}{
		{"SMs", func(c *Config) { c.SMs = 0 }},
		{"WarpSlots", func(c *Config) { c.WarpSlots = 0 }},
		{"IssueWidth", func(c *Config) { c.IssueWidth = 0 }},
		{"cache sizes", func(c *Config) { c.L1.SizeBytes = 0 }},
		{"ALULatency", func(c *Config) { c.ALULatency = -1 }},
		{"FP16Latency", func(c *Config) { c.FP16Latency = -1 }},
		{"SFULatency", func(c *Config) { c.SFULatency = -1 }},
		{"L1Latency", func(c *Config) { c.L1Latency = -1 }},
		{"L2Latency", func(c *Config) { c.L2Latency = -1 }},
		{"DRAMLatency", func(c *Config) { c.DRAMLatency = -1 }},
		{"DependencyFraction", func(c *Config) { c.DependencyFraction = -0.1 }},
		{"DependencyFraction", func(c *Config) { c.DependencyFraction = nan }},
		{"DependencyFraction", func(c *Config) { c.DependencyFraction = math.Inf(1) }},
		{"DependencyFraction", func(c *Config) { c.DependencyFraction = math.MaxFloat64 }}, // stall overflows
		{"DRAMBytesPerCycle", func(c *Config) { c.DRAMBytesPerCycle = 0 }},
		{"DRAMBytesPerCycle", func(c *Config) { c.DRAMBytesPerCycle = -64 }},
		{"DRAMBytesPerCycle", func(c *Config) { c.DRAMBytesPerCycle = nan }},
		{"DRAMBytesPerCycle", func(c *Config) { c.DRAMBytesPerCycle = math.SmallestNonzeroFloat64 }}, // service time overflows
	} {
		cfg := Baseline()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: got error %v, want one naming the field", tc.field, err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted a config Validate rejects", tc.field)
		}
	}
}

// TestBranchDivergenceClamped pins the spec-side half of the timing domain:
// a divergence outside [0, 1] behaves as the nearest bound and NaN as 0, so
// no spec can make a stall negative or NaN.
func TestBranchDivergenceClamped(t *testing.T) {
	run := func(div float64) KernelResult {
		spec := oracleSpec(16, 128, 0.3, 0.5, 0.3, 0.5, 1<<20, 2e7)
		spec.BranchDivergence = div
		return mustSim(t, Baseline()).RunKernel(spec)
	}
	lo, mid, hi := run(0), run(0.5), run(1)
	if !(lo.Cycles < mid.Cycles && mid.Cycles < hi.Cycles) {
		t.Fatalf("divergence does not lengthen the kernel: %v %v %v", lo.Cycles, mid.Cycles, hi.Cycles)
	}
	for _, tc := range []struct {
		div  float64
		want KernelResult
	}{{-3, lo}, {math.NaN(), lo}, {math.Inf(-1), lo}, {1.5, hi}, {math.Inf(1), hi}} {
		if got := run(tc.div); got != tc.want {
			t.Errorf("divergence %v: got %+v, want %+v", tc.div, got, tc.want)
		}
	}
}

func TestVariants(t *testing.T) {
	base := Baseline()
	for _, name := range DSEVariants {
		cfg, err := Variant(name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Name != name {
			t.Fatalf("variant name %q", cfg.Name)
		}
		switch name {
		case "cache_x2":
			if cfg.L2.SizeBytes != base.L2.SizeBytes*2 {
				t.Fatal("cache_x2 wrong")
			}
		case "sm_half":
			if cfg.SMs != base.SMs/2 {
				t.Fatal("sm_half wrong")
			}
		}
	}
	if _, err := Variant("warp_x2"); err == nil {
		t.Fatal("expected error for unknown variant")
	}
}

func TestRunKernelBasic(t *testing.T) {
	sim := mustSim(t, Baseline())
	res := sim.RunKernel(specFor(0.3, 0.5, 1<<20, 1e8))
	if res.Cycles <= 0 {
		t.Fatalf("cycles = %v", res.Cycles)
	}
	if res.Instructions <= 0 {
		t.Fatal("no instructions executed")
	}
	if res.L1HitRate < 0 || res.L1HitRate > 1 || res.L2HitRate < 0 || res.L2HitRate > 1 {
		t.Fatalf("hit rates out of range: %+v", res)
	}
}

func TestRunKernelDeterministic(t *testing.T) {
	a := mustSim(t, Baseline()).RunKernel(specFor(0.5, 0.5, 1<<20, 1e8))
	b := mustSim(t, Baseline()).RunKernel(specFor(0.5, 0.5, 1<<20, 1e8))
	if a != b {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestMoreWorkMoreCycles(t *testing.T) {
	sim := mustSim(t, Baseline())
	small := sim.RunKernel(specFor(0.2, 0.5, 1<<20, 1e8))
	sim2 := mustSim(t, Baseline())
	big := sim2.RunKernel(specFor(0.2, 0.5, 1<<20, 1e9))
	if big.Cycles <= small.Cycles {
		t.Fatalf("10x work gave %v <= %v cycles", big.Cycles, small.Cycles)
	}
}

func TestBiggerCacheHelpsMemoryBound(t *testing.T) {
	// Random accesses over a 1.5 MiB footprint with enough work to pass
	// over it several times: a 1 MiB L2 (cache_half) thrashes while a
	// 4 MiB L2 (cache_x2) retains the whole working set.
	inv := trace.Invocation{
		Seq:   1,
		Name:  "gather",
		Grid:  trace.Dim3{X: 32},
		Block: trace.Dim3{X: 128},
		Latent: trace.Latent{
			MemIntensity:   0.9,
			FootprintBytes: 1500 << 10,
			Locality:       0.3,
			RandomAccess:   1,
			ComputeWork:    1e9,
		},
		BBVSeed: 7,
	}
	sp := kernelgen.FromInvocation(&inv, kernelgen.DefaultLimits())
	spec := &sp
	small, _ := Variant("cache_half")
	big, _ := Variant("cache_x2")
	cSmall := mustSim(t, small).RunKernel(spec)
	cBig := mustSim(t, big).RunKernel(spec)
	if cBig.Cycles >= cSmall.Cycles {
		t.Fatalf("4x L2 should cut memory-bound cycles: %v vs %v", cBig.Cycles, cSmall.Cycles)
	}
	if cBig.L2HitRate <= cSmall.L2HitRate {
		t.Fatalf("bigger L2 should hit more: %v vs %v", cBig.L2HitRate, cSmall.L2HitRate)
	}
}

func TestMoreSMsHelpParallelKernels(t *testing.T) {
	spec := specFor(0.1, 0.8, 1<<20, 2e9) // compute-bound, many blocks
	smHalf, _ := Variant("sm_half")
	smX2, _ := Variant("sm_x2")
	slow := mustSim(t, smHalf).RunKernel(spec)
	fast := mustSim(t, smX2).RunKernel(spec)
	if fast.Cycles >= slow.Cycles {
		t.Fatalf("4x SMs should cut cycles: %v vs %v", fast.Cycles, slow.Cycles)
	}
}

func TestCacheVariantBarelyAffectsComputeBound(t *testing.T) {
	spec := specFor(0.02, 0.9, 256<<10, 2e9)
	small, _ := Variant("cache_half")
	big, _ := Variant("cache_x2")
	a := mustSim(t, small).RunKernel(spec)
	b := mustSim(t, big).RunKernel(spec)
	rel := (a.Cycles - b.Cycles) / a.Cycles
	if rel > 0.1 || rel < -0.1 {
		t.Fatalf("compute-bound kernel moved %.1f%% across cache variants", rel*100)
	}
}

func TestL2PersistsAcrossKernels(t *testing.T) {
	// Two identical kernels back to back: the second sees a warm L2 and
	// should be at least as fast; with FlushL2BetweenKernels the second
	// run's advantage must shrink or vanish.
	spec := specFor(0.8, 0.7, 1<<20, 2e8) // fits in L2
	warmCfg := Baseline()
	sim := mustSim(t, warmCfg)
	first := sim.RunKernel(spec)
	second := sim.RunKernel(spec)
	if second.L2HitRate < first.L2HitRate {
		t.Fatalf("warm L2 hit rate %v < cold %v", second.L2HitRate, first.L2HitRate)
	}

	flushCfg := Baseline()
	flushCfg.FlushL2BetweenKernels = true
	fsim := mustSim(t, flushCfg)
	fsim.RunKernel(spec)
	flushed := fsim.RunKernel(spec)
	if flushed.L2HitRate > second.L2HitRate {
		t.Fatalf("flushed L2 (%v) should not beat warm L2 (%v)", flushed.L2HitRate, second.L2HitRate)
	}
}

func TestRunSpecsTotal(t *testing.T) {
	sim := mustSim(t, Baseline())
	specs := []*kernelgen.Spec{
		specFor(0.2, 0.5, 1<<20, 1e8),
		specFor(0.8, 0.3, 2<<20, 1e8),
	}
	results, total := sim.RunSpecs(specs)
	if len(results) != 2 {
		t.Fatal("missing results")
	}
	if total != results[0].Cycles+results[1].Cycles {
		t.Fatalf("total %v != sum of parts", total)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := Baseline()
	bad.IssueWidth = 0
	if _, err := New(bad); err == nil {
		t.Fatal("expected config error")
	}
}

func BenchmarkRunKernel(b *testing.B) {
	sim := mustSim(b, Baseline())
	spec := specFor(0.5, 0.5, 1<<20, 5e8)
	sim.RunKernel(spec) // reach the scratch arena's high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunKernel(spec)
	}
}

func TestMSHRAcquire(t *testing.T) {
	var m mshrState
	// Unlimited when cap <= 0.
	if got := m.acquire(10, 100, 0); got != 10 {
		t.Fatalf("uncapped acquire = %v", got)
	}
	m = mshrState{}
	// Two slots free: both issue immediately.
	if m.acquire(0, 100, 2) != 0 || m.acquire(0, 100, 2) != 0 {
		t.Fatal("free slots should not stall")
	}
	// Third miss at t=0 stalls until the first fill at 100.
	if got := m.acquire(0, 100, 2); got != 100 {
		t.Fatalf("full MSHRs should stall to 100, got %v", got)
	}
	// A miss arriving after fills return does not stall.
	if got := m.acquire(500, 100, 2); got != 500 {
		t.Fatalf("late miss stalled: %v", got)
	}
}

func TestFewerMSHRsSlowMemoryBound(t *testing.T) {
	spec := specFor(0.9, 0.2, 4<<20, 5e8) // memory-bound, misses a lot
	few := Baseline()
	few.MSHRsPerSM = 2
	many := Baseline()
	many.MSHRsPerSM = 64
	slow := mustSim(t, few).RunKernel(spec)
	fast := mustSim(t, many).RunKernel(spec)
	if slow.Cycles <= fast.Cycles {
		t.Fatalf("2 MSHRs (%v cycles) should be slower than 64 (%v)", slow.Cycles, fast.Cycles)
	}
}

func TestMSHRsBarelyAffectComputeBound(t *testing.T) {
	spec := specFor(0.03, 0.9, 256<<10, 2e9)
	few := Baseline()
	few.MSHRsPerSM = 2
	many := Baseline()
	many.MSHRsPerSM = 64
	a := mustSim(t, few).RunKernel(spec)
	b := mustSim(t, many).RunKernel(spec)
	rel := (a.Cycles - b.Cycles) / b.Cycles
	if rel > 0.15 || rel < -0.15 {
		t.Fatalf("compute-bound kernel moved %.1f%% across MSHR configs", rel*100)
	}
}

// TestIdleSimulatorsBoundedLIFO pins the idle list behind RunSegmentedEngine:
// it retains at most maxIdleSims simulators, drops the oldest first, hands
// back the most recently returned one of the asked configuration, and never
// a simulator of another configuration.
func TestIdleSimulatorsBoundedLIFO(t *testing.T) {
	idleSims.Lock()
	saved := idleSims.sims
	idleSims.sims = nil
	idleSims.Unlock()
	defer func() {
		idleSims.Lock()
		idleSims.sims = saved
		idleSims.Unlock()
	}()

	cfgs := make([]Config, maxIdleSims+3)
	sims := make([]*Simulator, len(cfgs))
	for i := range cfgs {
		cfgs[i] = Baseline()
		cfgs[i].SMs = 1
		cfgs[i].MSHRsPerSM = i + 1 // distinct configurations
		sims[i] = mustSim(t, cfgs[i])
	}
	putSimulators(sims[:2])
	putSimulators([]*Simulator{nil, sims[2]})
	putSimulators(sims[3:])
	if n := len(idleSims.sims); n != maxIdleSims {
		t.Fatalf("%d idle simulators retained, bound is %d", n, maxIdleSims)
	}
	for i := range cfgs {
		got := getSimulator(cfgs[i])
		if got.cfg != cfgs[i] {
			t.Fatalf("config %d: got a simulator of another configuration", i)
		}
		if evicted := i < 3; evicted == (got == sims[i]) {
			t.Fatalf("config %d: reused=%v, want the three oldest evicted and the rest reused", i, got == sims[i])
		}
	}
	if n := len(idleSims.sims); n != 0 {
		t.Fatalf("%d idle simulators left after taking every one", n)
	}

	twin := mustSim(t, cfgs[5])
	putSimulators([]*Simulator{sims[5], sims[6], twin})
	if got := getSimulator(cfgs[5]); got != twin {
		t.Fatal("want the most recently returned simulator of the configuration")
	}
}

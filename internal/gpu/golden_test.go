package gpu

import (
	"testing"

	"stemroot/internal/kernelgen"
	"stemroot/internal/trace"
)

// goldenSpec mirrors the fixture used to record the golden results below.
func goldenSpec(mem, loc, ra float64, fp int64, work int64, seq int) *kernelgen.Spec {
	inv := trace.Invocation{
		Seq:   seq,
		Name:  "golden",
		Grid:  trace.Dim3{X: 48},
		Block: trace.Dim3{X: 192},
		Latent: trace.Latent{
			MemIntensity:   mem,
			FootprintBytes: fp,
			Locality:       loc,
			RandomAccess:   ra,
			ComputeWork:    work,
		},
		BBVSeed: 99,
	}
	s := kernelgen.FromInvocation(&inv, kernelgen.DefaultLimits())
	return &s
}

// TestRunKernelGolden pins RunKernel's output bit-for-bit against results
// recorded from the argmin reference loop (refSim in oracle_test.go — NOT
// from the optimized engine) under EngineFingerprint
// "stemroot-gpu-engine-v3-ready-id-rule". The test runs the reference on
// the same specs, so the constants can be re-derived at any time: a
// mismatch between reference and constants means the machine model moved
// (bump the fingerprint), a mismatch between engine and reference means the
// engine is wrong. The sequence deliberately runs back-to-back kernels on
// one Simulator (warm L2 + scratch reuse) and repeats the first spec so a
// stale-scratch bug cannot hide.
func TestRunKernelGolden(t *testing.T) {
	specs := []*kernelgen.Spec{
		goldenSpec(0.5, 0.5, 0.3, 1<<20, 5e8, 1),
		goldenSpec(0.9, 0.2, 1.0, 4<<20, 3e8, 2),
		goldenSpec(0.05, 0.9, 0.0, 256<<10, 8e8, 3),
		goldenSpec(0.5, 0.5, 0.3, 1<<20, 5e8, 1), // repeat: warm weights
	}
	want := []KernelResult{
		{Cycles: 30274.15477999796, Instructions: 249984, L1HitRate: 0.5014629994148002, L2HitRate: 0.7483459609433358},
		{Cycles: 83791.02234562529, Instructions: 149760, L1HitRate: 0.17452328543516435, L2HitRate: 0.4007310532859946},
		{Cycles: 9811.500000000033, Instructions: 294912, L1HitRate: 0.9011248593925759, L2HitRate: 0.5551763367463026},
		{Cycles: 30280.201752309455, Instructions: 249984, L1HitRate: 0.5014762994094802, L2HitRate: 0.7507403356188138},
	}
	// Flush variant exercises the §6.2 path through the same scratch arena.
	fcfg := Baseline()
	fcfg.FlushL2BetweenKernels = true
	fwant := []KernelResult{
		want[0],
		{Cycles: 83673.03190929512, Instructions: 149760, L1HitRate: 0.17484480498602625, L2HitRate: 0.3993136211728386},
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want []KernelResult
	}{{"baseline", Baseline(), want}, {"flush", fcfg, fwant}} {
		sim := mustSim(t, tc.cfg)
		ref := newRefSim(t, tc.cfg)
		for i, w := range tc.want {
			if got := ref.runKernel(specs[i]); got != w {
				t.Errorf("%s kernel %d: reference gives %+v, golden is %+v", tc.name, i, got, w)
			}
			if got := sim.RunKernel(specs[i]); got != w {
				t.Errorf("%s kernel %d: got %+v, want %+v", tc.name, i, got, w)
			}
		}
	}
}

// TestCacheResetMatchesFresh pins the Reset-equals-fresh argument: an
// access stream replayed on a Reset cache must produce the same hits,
// misses, and final tag state decisions as on a newly constructed one.
func TestCacheResetMatchesFresh(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 4}
	stream := make([]uint64, 6000)
	r := uint64(12345)
	for i := range stream {
		r = r*6364136223846793005 + 1
		stream[i] = (r >> 17) % (1 << 18)
	}
	replay := func(c *Cache) (hits []bool) {
		hits = make([]bool, len(stream))
		for i, a := range stream {
			hits[i] = c.Access(a)
		}
		return hits
	}
	reused := NewCache(cfg)
	replay(reused) // dirty the cache
	reused.Reset()
	got := replay(reused)
	want := replay(NewCache(cfg))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d: reset cache %v, fresh cache %v", i, got[i], want[i])
		}
	}
	if reused.stamp == 0 {
		t.Fatal("stamp did not advance")
	}
}

// TestCachePow2FastPathMatchesSlow verifies the shift/mask fast path picks
// the same set and line as the divide/modulo slow path by comparing a
// power-of-two cache against one with identical geometry forced down the
// slow path (non-power-of-two ways changes the set count away from 2^k).
func TestCachePow2FastPathMatchesSlow(t *testing.T) {
	fast := NewCache(CacheConfig{SizeBytes: 64 << 10, LineBytes: 128, Ways: 4})
	if !fast.linePow2 || !fast.setPow2 {
		t.Fatal("expected fast path for 64KiB/128B/4-way")
	}
	// Same geometry, slow path forced by clearing the flags.
	slow := NewCache(CacheConfig{SizeBytes: 64 << 10, LineBytes: 128, Ways: 4})
	slow.linePow2 = false
	slow.setPow2 = false
	r := uint64(777)
	for i := 0; i < 20000; i++ {
		r = r*6364136223846793005 + 1
		addr := r % (1 << 22)
		if fast.Access(addr) != slow.Access(addr) {
			t.Fatalf("access %d (addr %#x): fast/slow disagree", i, addr)
		}
	}
	if fast.Hits != slow.Hits || fast.Misses != slow.Misses {
		t.Fatalf("stats diverged: fast %d/%d, slow %d/%d", fast.Hits, fast.Misses, slow.Hits, slow.Misses)
	}
	// A 3-way cache has 170 sets (non-power-of-two): must select slow path
	// and still behave like an LRU cache.
	odd := NewCache(CacheConfig{SizeBytes: 64 << 10, LineBytes: 128, Ways: 3})
	if odd.setPow2 {
		t.Fatal("170 sets should not take the mask path")
	}
	odd.Access(0)
	if !odd.Access(0) {
		t.Fatal("slow path broke basic caching")
	}
}

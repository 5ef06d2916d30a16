package pipeline

import (
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
	"stemroot/internal/simcache"
)

// TestFullSimCachedBitIdentical pins the cache substitution contract: a
// cached run — cold or warm, at any worker count — produces exactly the
// cycles an uncached serial run produces.
func TestFullSimCachedBitIdentical(t *testing.T) {
	w := dseWorkload(t, "backprop", 40)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()

	want, err := FullSimOpt(w, cfg, lim, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	cache, err := simcache.New(simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // pass 0 cold, pass 1 fully warm
		for _, workers := range workerCounts() {
			got, err := FullSimOpt(w, cfg, lim, Options{Workers: workers, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("pass=%d workers=%d: %d cycles, want %d", pass, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pass=%d workers=%d: invocation %d = %v, uncached %v",
						pass, workers, i, got[i], want[i])
				}
			}
		}
	}
	s := cache.Stats()
	if s.Misses == 0 {
		t.Fatal("cache never computed anything")
	}
	if s.Hits == 0 {
		t.Fatal("warm passes produced no cache hits")
	}
}

// TestSampledSimCachedBitIdentical is the same contract for the sampled
// path, sharing one cache with a prior full run (the experiment harness's
// actual usage: ground truth warms the cache, sampled runs reuse segments
// when their boundaries coincide).
func TestSampledSimCachedBitIdentical(t *testing.T) {
	w := dseWorkload(t, "lud", 40)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	var indices []int
	for i := 0; i < w.Len(); i += 3 {
		indices = append(indices, i)
	}

	want, err := SampledSimOpt(nil, w, cfg, lim, indices, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := simcache.New(simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts() {
		got, err := SampledSimOpt(nil, w, cfg, lim, indices, Options{Workers: workers, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		for i, ix := range indices {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: invocation %d = %v, uncached %v", workers, ix, got[i], want[i])
			}
		}
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("repeat sampled runs produced no cache hits")
	}
}

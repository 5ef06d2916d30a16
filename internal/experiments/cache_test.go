package experiments

import (
	"reflect"
	"testing"

	"stemroot/internal/simcache"
)

// TestWarmupAblationCachedIdentical pins the harness-level cache contract:
// a runner that repeatedly full-simulates the same workloads (warmup sweeps
// ground truth once per warmup setting) produces bit-identical output with a
// shared segment cache, and the repeats actually hit it.
func TestWarmupAblationCachedIdentical(t *testing.T) {
	cfg := Quick()
	cfg.Reps = 1
	cfg.Sim.Workers = 2

	want, err := WarmupAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cache, err := simcache.New(simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sim.Cache = cache
	got, err := WarmupAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached run differs:\n got  %+v\n want %+v", got, want)
	}
	s := cache.Stats()
	if s.Hits == 0 {
		t.Fatalf("ground-truth segments were re-simulated: %s", s)
	}
	if s.Misses == 0 {
		t.Fatalf("implausible stats (nothing computed): %s", s)
	}
}

// TestFigure11CachedIdentical repeats the contract for the ε sweep and a
// warm second run — the shape the CI smoke exercises across processes via
// the disk tier.
func TestFigure11CachedIdentical(t *testing.T) {
	cfg := Quick()
	cfg.Reps = 1
	cfg.Sim.Workers = 2

	want, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := simcache.New(simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sim.Cache = cache
	for pass := 0; pass < 2; pass++ {
		got, err := Figure11(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d differs:\n got  %+v\n want %+v", pass, got, want)
		}
	}
	// The second pass re-derives every segment key and must find them all.
	if s := cache.Stats(); s.Hits == 0 {
		t.Fatalf("warm pass produced no hits: %s", s)
	}
}

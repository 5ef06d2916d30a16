package gpu_test

import (
	"sync"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
)

// recordingPrefetcher wraps a plain map-backed SegmentCache and records the
// prefetch announcement plus every key requested afterwards.
type recordingPrefetcher struct {
	mu        sync.Mutex
	want      bool
	announced [][]gpu.SegmentKey
	requested []gpu.SegmentKey
	store     map[gpu.SegmentKey][]gpu.KernelResult
}

func (p *recordingPrefetcher) WantPrefetch() bool { return p.want }

func (p *recordingPrefetcher) Prefetch(keys []gpu.SegmentKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.announced = append(p.announced, append([]gpu.SegmentKey(nil), keys...))
}

func (p *recordingPrefetcher) GetOrCompute(key gpu.SegmentKey, compute func() ([]gpu.KernelResult, error)) ([]gpu.KernelResult, error) {
	p.mu.Lock()
	p.requested = append(p.requested, key)
	results, ok := p.store[key]
	p.mu.Unlock()
	if ok {
		return results, nil
	}
	results, err := compute()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.store[key] = results
	p.mu.Unlock()
	return results, nil
}

var _ gpu.BatchPrefetcher = (*recordingPrefetcher)(nil)

// TestPrefetchAnnouncesAllSegmentKeys pins the batch hook contract: when
// the cache wants prefetch, RunSegmentedEngine announces exactly the keys
// it later requests — every segment, in segment order, before any lookup —
// and produces output identical to the uncached run.
func TestPrefetchAnnouncesAllSegmentKeys(t *testing.T) {
	unclampProcs(t, 4)
	cfg := gpu.Baseline()
	lim := kernelgen.DefaultLimits()
	specAt := skewedSpecAt(lim)
	const n, segLen = 64, 4

	want, err := gpu.RunSegmentedEngine(nil, cfg, n, specAt, segLen, 1, nil, gpu.Engine{})
	if err != nil {
		t.Fatal(err)
	}

	p := &recordingPrefetcher{want: true, store: make(map[gpu.SegmentKey][]gpu.KernelResult)}
	got, err := gpu.RunSegmentedEngine(nil, cfg, n, specAt, segLen, 3, p, gpu.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("invocation %d differs with prefetching cache", i)
		}
	}

	if len(p.announced) != 1 {
		t.Fatalf("%d Prefetch calls, want 1", len(p.announced))
	}
	keys := p.announced[0]
	nseg := (n + segLen - 1) / segLen
	if len(keys) != nseg {
		t.Fatalf("announced %d keys for %d segments", len(keys), nseg)
	}
	// The announcement must cover exactly the keys later requested, and the
	// requested set must have one key per segment.
	announced := make(map[gpu.SegmentKey]int, len(keys))
	for i, key := range keys {
		announced[key] = i
	}
	if len(p.requested) != nseg {
		t.Fatalf("%d per-segment lookups, want %d", len(p.requested), nseg)
	}
	seen := make(map[gpu.SegmentKey]bool)
	for _, key := range p.requested {
		if _, ok := announced[key]; !ok {
			t.Fatalf("requested key %s was never announced", key)
		}
		if seen[key] {
			t.Fatalf("key %s requested twice", key)
		}
		seen[key] = true
	}
	// Announcement is in segment order: key i must equal the key the
	// serial per-segment derivation produces.
	for sg := 0; sg < nseg; sg++ {
		lo := sg * segLen
		hi := lo + segLen
		if hi > n {
			hi = n
		}
		specs := make([]kernelgen.Spec, 0, hi-lo)
		for i := lo; i < hi; i++ {
			specs = append(specs, specAt(i))
		}
		if want := gpu.KeyFor(cfg, specs, gpu.Engine{}); keys[sg] != want {
			t.Fatalf("announced key %d = %s, want %s", sg, keys[sg], want)
		}
	}
}

// TestPrefetchSkippedWhenUnwanted: a cache that declines (WantPrefetch
// false) must not pay the up-front key pass.
func TestPrefetchSkippedWhenUnwanted(t *testing.T) {
	cfg := gpu.Baseline()
	specAt := skewedSpecAt(kernelgen.DefaultLimits())
	p := &recordingPrefetcher{want: false, store: make(map[gpu.SegmentKey][]gpu.KernelResult)}
	if _, err := gpu.RunSegmentedEngine(nil, cfg, 16, specAt, 4, 1, p, gpu.Engine{}); err != nil {
		t.Fatal(err)
	}
	if len(p.announced) != 0 {
		t.Fatal("Prefetch called on a cache that declined it")
	}
}

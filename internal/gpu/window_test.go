package gpu

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunSegmentedEngineFillsTheWindow pins the caller-owned results window
// at 1 and 2 workers, cached and uncached: results written into a warm
// window are bit-equal to a dst == nil call, a window shorter than n grows,
// one long enough is filled in place, and a cache hit is copied into the
// window, never aliased — overwriting a returned window changes no later
// call's results.
func TestRunSegmentedEngineFillsTheWindow(t *testing.T) {
	cfg := Baseline()
	const n, segLen = 24, 8
	specAt := engineTestSpecs(n)
	want, err := RunSegmentedEngine(nil, cfg, n, specAt, segLen, 1, nil, Engine{})
	if err != nil {
		t.Fatal(err)
	}
	garbage := KernelResult{Cycles: -1, Instructions: -1, L1HitRate: -1, L2HitRate: -1}
	check := func(what string, got []KernelResult) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: %d results, want %d", what, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: result %d = %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	for _, cached := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("cached=%v workers=%d", cached, workers)
			var cache SegmentCache
			if cached {
				cache = newRecordingCache()
			}
			run := func(dst []KernelResult) []KernelResult {
				t.Helper()
				got, err := RunSegmentedEngine(dst, cfg, n, specAt, segLen, workers, cache, Engine{})
				if err != nil {
					t.Fatal(err)
				}
				return got
			}

			short := []KernelResult{garbage, garbage, garbage}
			check(name+", short window", run(short))

			window := make([]KernelResult, n+5)
			for i := range window {
				window[i] = garbage
			}
			got := run(window[:1])
			if &got[0] != &window[0] {
				t.Fatalf("%s: a window of capacity %d was reallocated for %d results", name, len(window), n)
			}
			check(name+", warm window", got)

			// Every segment is now a hit when cached: overwrite the window, as
			// its owner may, and the cache's entries must not have moved.
			for i := range got {
				got[i] = garbage
			}
			check(name+", rewritten window", run(got))
			check(name+", nil after a rewrite", run(nil))
		}
	}
}

// wrongLengthCache is a SegmentCache that serves, for every key, a
// well-formed entry of len(segment)+delta results that were never simulated.
type wrongLengthCache struct {
	delta int
}

func (c wrongLengthCache) GetOrCompute(_ SegmentKey, compute func() ([]KernelResult, error)) ([]KernelResult, error) {
	seg, err := compute() // only to learn the segment's length
	if err != nil {
		return nil, err
	}
	bad := make([]KernelResult, max(len(seg)+c.delta, 0))
	for i := range bad {
		bad[i] = KernelResult{Cycles: 1, Instructions: 1}
	}
	return bad, nil
}

// TestRunSegmentedEngineWrongLengthHit pins the length check on cache hits:
// a cached segment with one result too few, or one too many, is simulated
// on the worker's own simulator instead of copied, so the results are
// bit-equal to an uncached run at every worker count — none is a stale
// window element or a value of the wrong entry.
func TestRunSegmentedEngineWrongLengthHit(t *testing.T) {
	cfg := Baseline()
	const n, segLen = 20, 8 // a short last segment too
	specAt := engineTestSpecs(n)
	want, err := RunSegmentedEngine(nil, cfg, n, specAt, segLen, 1, nil, Engine{})
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []int{-1, 1} {
		for _, workers := range []int{1, 2} {
			window := make([]KernelResult, n)
			for i := range window {
				window[i] = KernelResult{Cycles: -1}
			}
			got, err := RunSegmentedEngine(window, cfg, n, specAt, segLen, workers, wrongLengthCache{delta}, Engine{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("entries of length %+d, %d workers: result %d = %+v, uncached %+v",
						delta, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// decodingCache is a recordingCache that is also a SegmentDecoder: it
// decodes a stored entry of the window's length into the window unless told
// to refuse, and counts decodes and GetOrCompute calls.
type decodingCache struct {
	*recordingCache
	refuse           bool
	decodes, lookups atomic.Int64
}

func (c *decodingCache) DecodeInto(key SegmentKey, dst []KernelResult) bool {
	c.mu.Lock()
	seg, ok := c.entries[key]
	c.mu.Unlock()
	if !ok || c.refuse || len(seg) != len(dst) {
		return false
	}
	copy(dst, seg)
	c.decodes.Add(1)
	return true
}

func (c *decodingCache) GetOrCompute(key SegmentKey, compute func() ([]KernelResult, error)) ([]KernelResult, error) {
	c.lookups.Add(1)
	return c.recordingCache.GetOrCompute(key, compute)
}

// TestRunSegmentedEngineDecodesIntoTheWindow: a SegmentDecoder is asked
// first for every segment. Cold, it declines and GetOrCompute computes; warm,
// every segment is decoded into the window and GetOrCompute is not called;
// told to refuse, GetOrCompute serves every segment again. The results
// match an uncached run bit for bit each time, at 1 and 2 workers.
func TestRunSegmentedEngineDecodesIntoTheWindow(t *testing.T) {
	cfg := Baseline()
	const n, segLen, nseg = 20, 8, 3 // a short last segment too
	specAt := engineTestSpecs(n)
	want, err := RunSegmentedEngine(nil, cfg, n, specAt, segLen, 1, nil, Engine{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		c := &decodingCache{recordingCache: newRecordingCache()}
		for i, step := range []struct {
			refuse           bool
			decodes, lookups int64
		}{{false, 0, nseg}, {false, nseg, nseg}, {true, nseg, 2 * nseg}} {
			c.refuse = step.refuse
			window := make([]KernelResult, n)
			for i := range window {
				window[i] = KernelResult{Cycles: -1}
			}
			got, err := RunSegmentedEngine(window, cfg, n, specAt, segLen, workers, c, Engine{})
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%d workers, call %d: result %d = %+v, uncached %+v", workers, i, j, got[j], want[j])
				}
			}
			if d, l := c.decodes.Load(), c.lookups.Load(); d != step.decodes || l != step.lookups {
				t.Fatalf("%d workers, call %d: %d decodes and %d lookups, want %d and %d", workers, i, d, l, step.decodes, step.lookups)
			}
		}
	}
}

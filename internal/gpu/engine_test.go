package gpu

import (
	"fmt"
	"sync"
	"testing"

	"stemroot/internal/kernelgen"
)

// recordingCache is a minimal SegmentCache that records every key it is
// asked for — enough to prove which content addresses a run touches.
type recordingCache struct {
	mu      sync.Mutex
	entries map[SegmentKey][]KernelResult
}

func newRecordingCache() *recordingCache {
	return &recordingCache{entries: make(map[SegmentKey][]KernelResult)}
}

func (c *recordingCache) GetOrCompute(key SegmentKey, compute func() ([]KernelResult, error)) ([]KernelResult, error) {
	c.mu.Lock()
	seg, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		return seg, nil
	}
	seg, err := compute()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.entries[key] = seg
	c.mu.Unlock()
	return seg, nil
}

func engineTestSpecs(n int) func(i int) kernelgen.Spec {
	return func(i int) kernelgen.Spec {
		s := *specFor(0.3+0.05*float64(i%8), 0.2+0.07*float64(i%5), 1<<20, 1e6)
		s.Seed = uint64(i) * 7919
		return s
	}
}

// TestRunSegmentedEngineParDeterministic pins the composed determinism
// contract: under the par engine, results are bit-identical for every
// (segment workers, intra-kernel workers) combination.
func TestRunSegmentedEngineParDeterministic(t *testing.T) {
	cfg := Baseline()
	specAt := engineTestSpecs(40)
	eng := Engine{Mode: EngineModePar, Workers: 1}
	base, err := RunSegmentedEngine(nil, cfg, 40, specAt, 8, 1, nil, eng)
	if err != nil {
		t.Fatal(err)
	}
	for _, jseg := range []int{2, 4} {
		for _, jk := range []int{2, 8} {
			eng.Workers = jk
			got, err := RunSegmentedEngine(nil, cfg, 40, specAt, 8, jseg, nil, eng)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != base[i] {
					t.Fatalf("j=%d jkernel=%d: result %d = %+v != %+v", jseg, jk, i, got[i], base[i])
				}
			}
		}
	}
}

// TestRunSegmentedEngineExactIsRunSegmentedCached pins that the zero Engine
// is the exact contract at every worker count: same results, same cache keys
// (an exact-engine run against a cache warmed by an earlier one must hit
// every segment). The name dates from the RunSegmentedCached rung.
func TestRunSegmentedEngineExactIsRunSegmentedCached(t *testing.T) {
	cfg := Baseline()
	specAt := engineTestSpecs(24)
	cache := newRecordingCache()
	want, err := RunSegmentedEngine(nil, cfg, 24, specAt, 8, 2, cache, Engine{})
	if err != nil {
		t.Fatal(err)
	}
	warmed := len(cache.entries)
	got, err := RunSegmentedEngine(nil, cfg, 24, specAt, 8, 3, cache, Engine{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.entries) != warmed {
		t.Fatalf("exact engine minted %d new cache keys; wanted pure hits", len(cache.entries)-warmed)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestRunSegmentedEngineModesNeverShareEntries is the end-to-end half of the
// cache-honesty contract (the key-level half is TestSegmentKeyEngineSeparation):
// one shared cache serving an exact run and a par run of the SAME workload
// ends up with two disjoint entry sets, and neither run observes the other's
// results.
func TestRunSegmentedEngineModesNeverShareEntries(t *testing.T) {
	cfg := Baseline()
	specAt := engineTestSpecs(24)
	cache := newRecordingCache()
	exact, err := RunSegmentedEngine(nil, cfg, 24, specAt, 8, 2, cache, Engine{})
	if err != nil {
		t.Fatal(err)
	}
	afterExact := len(cache.entries)
	par, err := RunSegmentedEngine(nil, cfg, 24, specAt, 8, 2, cache, Engine{Mode: EngineModePar, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.entries) != 2*afterExact {
		t.Fatalf("par run added %d entries, want %d (disjoint key sets)", len(cache.entries)-afterExact, afterExact)
	}
	// A par replay must hit only the par entries and reproduce par results.
	par2, err := RunSegmentedEngine(nil, cfg, 24, specAt, 8, 4, cache, Engine{Mode: EngineModePar, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.entries) != 2*afterExact {
		t.Fatal("par replay minted new keys")
	}
	diff := false
	for i := range par {
		if par2[i] != par[i] {
			t.Fatalf("par replay diverged at %d", i)
		}
		if par[i] != exact[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("par and exact results identical on every kernel — separation test is vacuous")
	}
}

// TestRunSegmentedEngineRejectsBadEngine pins the error path.
func TestRunSegmentedEngineRejectsBadEngine(t *testing.T) {
	cfg := Baseline()
	if _, err := RunSegmentedEngine(nil, cfg, 8, engineTestSpecs(8), 4, 1, nil, Engine{Mode: "fast"}); err == nil {
		t.Fatal("unknown engine mode accepted")
	}
}

// TestRunSegmentedEngineWarmAllocs pins the warm path of the executor: a
// call whose every segment hits, into a window that already holds its
// results, allocates nothing — nothing per segment, nothing per worker
// scratch, no bound callback for the scheduler — whether it covers one
// segment or sixty-four; with no window it allocates the results alone.
// Before the idle scratch list each call re-grew a spec slice and a
// key-encoding buffer from nil and made one closure per segment.
func TestRunSegmentedEngineWarmAllocs(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		t.Run(fmt.Sprintf("prefetch=%v", prefetch), func(t *testing.T) { testWarmAllocs(t, prefetch) })
	}
}

// prefetchingCache is a recordingCache that asks for the key prefetch pass,
// whose keys must come from the run's scratch.
type prefetchingCache struct {
	*recordingCache
	announced int
}

func (c *prefetchingCache) WantPrefetch() bool         { return true }
func (c *prefetchingCache) Prefetch(keys []SegmentKey) { c.announced += len(keys) }

func testWarmAllocs(t *testing.T, prefetch bool) {
	cfg := Baseline()
	cache := newRecordingCache()
	var sc SegmentCache = cache
	pc := &prefetchingCache{recordingCache: cache}
	if prefetch {
		sc = pc
	}
	const segLen = 4
	for _, nseg := range []int{1, 64} {
		n := nseg * segLen
		specs := make([]kernelgen.Spec, n) // prebuilt: specAt itself must not allocate
		for i := range specs {
			specs[i] = engineTestSpecs(n)(i)
		}
		specAt := func(i int) kernelgen.Spec { return specs[i] }
		var window []KernelResult
		run := func() {
			var err error
			if window, err = RunSegmentedEngine(window, cfg, n, specAt, segLen, 1, sc, Engine{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the cache, grow the scratch and the window
		misses := len(cache.entries)
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%d all-hit segments into a warm window: %.0f allocations per call, want none", nseg, allocs)
		}
		fresh := func() {
			if _, err := RunSegmentedEngine(nil, cfg, n, specAt, segLen, 1, sc, Engine{}); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(10, fresh); allocs > 1 {
			t.Errorf("%d all-hit segments into no window: %.0f allocations per call, want the results slice alone", nseg, allocs)
		}
		if len(cache.entries) != misses {
			t.Fatalf("%d segments: the measured calls were not all hits", nseg)
		}
	}
	if prefetch && pc.announced == 0 {
		t.Fatal("the prefetch pass never ran")
	}
}

// TestIdleScratchBoundedLIFO pins the idle list behind RunSegmentedEngine's
// per-call state, as TestIdleSimulatorsBoundedLIFO does for simulators: it
// retains at most maxIdleScratch runs, drops the oldest first, hands back the
// most recently returned one, and a returned run refers to nothing of the
// call that used it.
func TestIdleScratchBoundedLIFO(t *testing.T) {
	idleScratch.Lock()
	saved := idleScratch.runs
	idleScratch.runs = nil
	idleScratch.Unlock()
	defer func() {
		idleScratch.Lock()
		idleScratch.runs = saved
		idleScratch.Unlock()
	}()

	runs := make([]*segRun, maxIdleScratch+3)
	for i := range runs {
		runs[i] = getRun(1 + i%3)
		if got := len(runs[i].scratch); got != 1+i%3 || len(runs[i].sims) != got {
			t.Fatalf("run %d: scratch for %d workers, asked for %d", i, got, 1+i%3)
		}
	}
	for _, r := range runs {
		putRun(r)
	}
	if n := len(idleScratch.runs); n != maxIdleScratch {
		t.Fatalf("%d idle runs retained, bound is %d", n, maxIdleScratch)
	}
	for i := len(runs) - 1; i >= 3; i-- {
		if got := getRun(1); got != runs[i] {
			t.Fatalf("take %d: want the most recently returned run", len(runs)-1-i)
		}
	}
	if n := len(idleScratch.runs); n != 0 {
		t.Fatalf("%d idle runs left after taking every one: the three oldest were not dropped", n)
	}

	// A run comes back from a call clean, and grows to the next call's width.
	cache := newRecordingCache()
	if _, err := RunSegmentedEngine(nil, Baseline(), 6, engineTestSpecs(6), 2, 1, cache, Engine{}); err != nil {
		t.Fatal(err)
	}
	r := getRun(3)
	if len(r.scratch) != 3 || r.scratch[0].keyBuf == nil {
		t.Fatalf("want the call's run back, grown to 3 workers: %d workers, key buffer %v", len(r.scratch), r.scratch[0].keyBuf != nil)
	}
	if r.specAt != nil || r.cache != nil || len(r.keys) != 0 || r.sims[0] != nil ||
		r.results != nil || r.err != nil {
		t.Fatalf("an idle run still holds its last call's state: %+v", r)
	}
}

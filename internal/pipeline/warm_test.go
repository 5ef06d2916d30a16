package pipeline

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/sampling"
	"stemroot/internal/simcache"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// warmCell is one cell of a design-space sweep: a reduced workload on one
// GPU variant.
type warmCell struct {
	cfg gpu.Config
	w   *trace.Workload
}

// warmCells is the sweep of the dse_warm benchmark workload: 15 workloads of
// eight invocations, two draws of the set, two GPU variants — 60 cells.
func warmCells(tb testing.TB) []warmCell {
	keep := map[string]bool{
		"backprop": true, "bfs": true, "btree": true, "gaussian": true, "heartwall": true,
		"hotspot": true, "kmeans": true, "lud": true, "nw": true,
		"bert": true, "bloom": true, "deit": true, "gemma": true, "gpt2": true, "resnet50": true,
	}
	var ws []*trace.Workload
	for _, seed := range []uint64{2, 3} {
		for _, w := range append(workloads.DSERodinia(seed, 8), workloads.DSEHuggingFace(seed, 8)...) {
			if keep[w.Name] {
				ws = append(ws, w)
			}
		}
	}
	var cells []warmCell
	for _, v := range []string{"baseline", "cache_half"} {
		cfg, err := gpu.Variant(v)
		if err != nil {
			tb.Fatal(err)
		}
		for _, w := range ws {
			cells = append(cells, warmCell{cfg, w})
		}
	}
	return cells
}

// run is the cell as a sweep evaluates it: ground truth by full simulation,
// then profile → STEM+ROOT plan → sampled simulation → extrapolation.
func (c warmCell) run(tb testing.TB, dev hwmodel.Device, cache gpu.SegmentCache) *Result {
	lim, opt := kernelgen.DSELimits(), Options{Workers: 1, Cache: cache}
	full, err := FullSimOpt(c.w, c.cfg, lim, opt)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := RunOpt(c.w, dev, sampling.NewSTEMRoot(1), c.cfg, lim, full, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// primedDir runs every cell once against a disk-backed cache and returns the
// directory: what a second process with -cachedir starts from.
func primedDir(tb testing.TB, cells []warmCell, dev hwmodel.Device) string {
	dir := tb.TempDir()
	cache, err := simcache.New(simcache.Options{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	for _, c := range cells {
		c.run(tb, dev, cache)
	}
	return dir
}

func profilingDevice(tb testing.TB) hwmodel.Device {
	dev, err := hwmodel.ByName("rtx2080")
	if err != nil {
		tb.Fatal(err)
	}
	return dev
}

// BenchmarkWarmCell is one cell of a warm sweep per iteration — every segment
// a hit, a fresh cache over the primed directory every 60 cells, as the
// dse_warm benchmark workload runs them. With -benchmem, B/op and allocs/op
// are the per-cell figures of EXPERIMENTS "Warm-sweep allocation".
func BenchmarkWarmCell(b *testing.B) {
	cells, dev := warmCells(b), profilingDevice(b)
	dir := primedDir(b, cells, dev)
	var cache *simcache.Cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(cells) == 0 {
			var err error
			if cache, err = simcache.New(simcache.Options{Dir: dir}); err != nil {
				b.Fatal(err)
			}
		}
		cells[i%len(cells)].run(b, dev, cache)
	}
	b.StopTimer()
	if s := cache.Stats(); s.Misses != 0 || s.DiskErrors != 0 {
		b.Fatalf("the sweep was not warm: %s", s)
	}
}

// TestWarmCellAllocs pins what one warm cell allocates end to end, where the
// bytes of a warm sweep were: against a fresh cache over a primed directory
// (both lookups disk hits), FullSimOpt + RunOpt allocate what they return —
// the ground truth's cycles and the Result — besides the STEM method the
// cell constructs and the cache's bits over the shared pack index: 4
// objects and 208 B for eight invocations, where there were 58 and 5.1 KB.
// A hit decodes straight into the idle source's window, and the profile,
// the STEM plan, its sample list and the sampled cycles are rebuilt in its
// run scratch, which a warm cell has already grown. The figures are the
// fewest of ten cells: a cell that finds the shared pack mapping collected
// since the last one maps and indexes it again.
func TestWarmCellAllocs(t *testing.T) {
	dev := profilingDevice(t)
	cell := warmCell{gpu.Baseline(), dseWorkload(t, "backprop", 8)}
	dir := primedDir(t, []warmCell{cell}, dev)
	objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	const runs = 10
	for i := 0; i <= runs; i++ {
		cache, err := simcache.New(simcache.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cell.run(t, dev, cache)
		runtime.ReadMemStats(&after)
		if s := cache.Stats(); s.DiskHits != 2 || s.Misses != 0 {
			t.Fatalf("the cell was not served from the primed directory: %s", s)
		}
		if i > 0 { // the first run grows the idle scratch
			objects = min(objects, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if raceEnabled {
		t.Skip("the race runtime's own allocations break the pin")
	}
	maxObjects, maxBytes := uint64(4), uint64(208)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("a warm cell allocates %d objects and %d bytes, want at most %d and %d", objects, bytes, maxObjects, maxBytes)
	}
}

// TestWarmSweepStats pins the -cachestats line of a warm sweep over a primed
// directory: every lookup a pack hit (its first use a disk hit, the rest
// memory hits), and the pack's records counted as entries but not as bytes,
// since they are decoded from the mapped pack and the byte bound covers only
// the ring, which a warm sweep never fills. So the line is the same at the
// default bound, at one below any record's size and at one between. Hits,
// misses and disk errors are the lines recorded before the pack was mapped.
func TestWarmSweepStats(t *testing.T) {
	cells, dev := warmCells(t), profilingDevice(t)
	dir := primedDir(t, cells, dev)
	const want = "hits=120 (mem=34 disk=86 remote=0 shared=0) misses=0 entries=86 bytes=0 evictions=0 disk_errors=0 disk_write_errors=0"
	for _, maxBytes := range []int64{0, 1, 16000} {
		cache, err := simcache.New(simcache.Options{Dir: dir, MaxBytes: maxBytes})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			c.run(t, dev, cache)
		}
		if got := cache.Stats().String(); got != want {
			t.Errorf("MaxBytes %d: stats after a warm sweep\n got %s\nwant %s", maxBytes, got, want)
		}
	}
}

// isolateIdleSources empties the idle list for the test and gives the
// sources it held back when the test ends.
func isolateIdleSources(t *testing.T) {
	idleSources.Lock()
	saved := idleSources.list
	idleSources.list = nil
	idleSources.Unlock()
	t.Cleanup(func() {
		idleSources.Lock()
		idleSources.list = saved
		idleSources.Unlock()
	})
}

// TestIdleSourceWindowBounded pins what an idle source keeps of its pass:
// the runner's results window while it is at most maxIdleWindow results, so
// the next pass fills it instead of allocating, and nothing after a full
// simulation longer than that — a long workload's results are not pinned on
// the idle list.
func TestIdleSourceWindowBounded(t *testing.T) {
	isolateIdleSources(t)
	lastWindow := func() []gpu.KernelResult {
		idleSources.Lock()
		defer idleSources.Unlock()
		if len(idleSources.list) != 1 {
			t.Fatalf("%d idle sources, want the one of the pass", len(idleSources.list))
		}
		return idleSources.list[0].window
	}

	small := dseWorkload(t, "backprop", 8)
	// One invocation repeated: every full segment has one key, so the long
	// pass is lookups after its first segment.
	long := &trace.Workload{Name: "long", Seed: small.Seed, Invs: make([]trace.Invocation, maxIdleWindow+1)}
	for i := range long.Invs {
		long.Invs[i] = small.Invs[0]
	}
	cache, err := simcache.New(simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lim, opt := kernelgen.DSELimits(), Options{Workers: 1, Cache: cache}
	if _, err := FullSimOpt(small, gpu.Baseline(), lim, opt); err != nil {
		t.Fatal(err)
	}
	if w := lastWindow(); len(w) != small.Len() {
		t.Fatalf("after an %d-invocation pass the idle window holds %d results, want them kept", small.Len(), len(w))
	}
	if _, err := FullSimOpt(long, gpu.Baseline(), lim, opt); err != nil {
		t.Fatal(err)
	}
	if w := lastWindow(); w != nil {
		t.Fatalf("after a %d-invocation pass the idle window keeps %d results, bound is %d", long.Len(), cap(w), maxIdleWindow)
	}
}

// TestIdleRunScratchBounded is TestIdleSourceWindowBounded for RunOpt's
// scratch: after an eight-invocation cell the idle source keeps its profile,
// plan, index list and cycles, so the next call rebuilds them in place, and
// after a workload longer than maxIdleWindow it keeps none of them. The
// long workload is one invocation repeated, so its plan samples a handful
// and its ground truth need not be simulated.
func TestIdleRunScratchBounded(t *testing.T) {
	isolateIdleSources(t)
	small := dseWorkload(t, "backprop", 8)
	long := &trace.Workload{Name: "long", Seed: small.Seed, Invs: make([]trace.Invocation, 5000)}
	for i := range long.Invs {
		long.Invs[i] = small.Invs[0]
	}
	lim, opt := kernelgen.DSELimits(), Options{Workers: 1}
	run := func(w *trace.Workload) *runScratch {
		if _, err := RunOpt(w, hwmodel.RTX2080, sampling.NewSTEMRoot(1), gpu.Baseline(), lim, make([]float64, w.Len()), opt); err != nil {
			t.Fatal(err)
		}
		idleSources.Lock()
		defer idleSources.Unlock()
		for _, src := range idleSources.list {
			r := &src.run
			if n := max(cap(r.prof.TimeUS), cap(r.plan.Clusters), cap(r.sampled), cap(r.cycles)); n > maxIdleWindow {
				t.Fatalf("after a %d-invocation call an idle source keeps %d rows of run scratch, bound is %d", w.Len(), n, maxIdleWindow)
			}
		}
		// The call's own source went back last, after its sampled pass's.
		return &idleSources.list[len(idleSources.list)-1].run
	}
	if r := run(small); len(r.prof.TimeUS) != small.Len() || len(r.plan.Clusters) == 0 || len(r.sampled) != len(r.cycles) {
		t.Fatalf("after an %d-invocation call the idle scratch holds %d times, %d clusters, %d indices and %d cycles, want them kept",
			small.Len(), len(r.prof.TimeUS), len(r.plan.Clusters), len(r.sampled), len(r.cycles))
	}
	if r := run(long); !reflect.ValueOf(*r).IsZero() {
		t.Fatalf("after a %d-invocation call the idle source keeps run scratch (%d times), want none", long.Len(), cap(r.prof.TimeUS))
	}
}

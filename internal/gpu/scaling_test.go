package gpu_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
	"stemroot/internal/simcache"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// unclampProcs raises GOMAXPROCS so parallel.Workers does not collapse every
// pool to one goroutine on a small CI machine — the scheduling interleavings
// these tests exist to exercise (segments finishing out of index order) need
// real concurrent workers. Restored on cleanup.
func unclampProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// skewedSpecAt builds a spec generator with adversarially skewed costs: one
// early index in each block of 16 is a giant kernel (hundreds of times the
// work of its neighbors), the rest are tiny. Under static striping the
// worker owning the giants serializes the run; the shared cursor must drain
// the cheap segments onto other workers. Cost skew lives entirely in the spec —
// a pure function of i — so results stay a pure function of the input.
func skewedSpecAt(lim kernelgen.Limits) func(i int) kernelgen.Spec {
	return func(i int) kernelgen.Spec {
		work := int64(2e4)
		if i%16 == 1 {
			work = 8e6
		}
		inv := trace.Invocation{
			Seq:   i + 1,
			Name:  "skew",
			Grid:  trace.Dim3{X: 16 + i%7},
			Block: trace.Dim3{X: 128},
			Latent: trace.Latent{
				MemIntensity:   0.2 + 0.05*float64(i%9),
				FootprintBytes: 1 << 20,
				Locality:       0.5,
				ComputeWork:    work,
			},
			BBVSeed: uint64(i)*2654435761 + 7,
		}
		return kernelgen.FromInvocation(&inv, lim)
	}
}

// TestRunSegmentedStealingDeterministicSkewed pins the contract of the
// segment executor: under adversarially skewed segment costs — the shape
// that forces out-of-order segment completion — per-invocation results are
// bit-identical to the serial path at every worker count. Run under -race
// this also proves the per-worker simulators and the per-segment result
// windows share nothing unsynchronized.
func TestRunSegmentedStealingDeterministicSkewed(t *testing.T) {
	unclampProcs(t, 8)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	specAt := skewedSpecAt(lim)
	const n, segLen = 96, 4

	want, err := gpu.RunSegmentedEngine(nil, cfg, n, specAt, segLen, 1, nil, gpu.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		got, err := gpu.RunSegmentedEngine(nil, cfg, n, specAt, segLen, workers, nil, gpu.Engine{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: invocation %d = %+v, serial %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestSegmentLenSelfConsistent documents that the segment length (unlike
// the worker count) IS semantically meaningful: it decides where L2 goes
// cold, so different values may legally change cycle counts. The test only
// demands each length be self-consistent across worker counts, on a real
// DSE workload's specs.
func TestSegmentLenSelfConsistent(t *testing.T) {
	unclampProcs(t, 8)
	var w *trace.Workload
	for _, cand := range workloads.DSERodinia(1, 40) {
		if cand.Name == "heartwall" {
			w = cand
		}
	}
	if w == nil {
		t.Fatal("heartwall not in the DSE suite")
	}
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	specAt := func(i int) kernelgen.Spec { return kernelgen.FromInvocation(&w.Invs[i], lim) }
	for _, segLen := range []int{1, 4, 16, 64} {
		want, err := gpu.RunSegmentedEngine(nil, cfg, w.Len(), specAt, segLen, 1, nil, gpu.Engine{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := gpu.RunSegmentedEngine(nil, cfg, w.Len(), specAt, segLen, 3, nil, gpu.Engine{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("segLen=%d: invocation %d differs across worker counts", segLen, i)
			}
		}
	}
}

// TestRunKernelParDeterministicAcrossWorkers pins the tentpole contract of
// the intra-kernel parallel engine with REAL concurrent workers (GOMAXPROCS
// raised so parallel.Workers does not clamp the pool to one): at a fixed
// epoch, RunKernelPar is bit-identical for every worker count. Several
// kernels run back-to-back on one simulator per worker count, so L2 and
// arena state persist across kernels and any divergence compounds instead of
// hiding. Under -race this also proves the SM shards and the barrier
// coordinator share nothing unsynchronized.
func TestRunKernelParDeterministicAcrossWorkers(t *testing.T) {
	unclampProcs(t, 8)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	specAt := skewedSpecAt(lim)
	const kernels = 6

	run := func(workers int) []gpu.KernelResult {
		sim, err := gpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]gpu.KernelResult, 0, kernels)
		for i := 0; i < kernels; i++ {
			spec := specAt(i)
			out = append(out, sim.RunKernelPar(&spec, workers, gpu.DefaultEpoch))
		}
		return out
	}

	base := run(1)
	for _, workers := range []int{2, 3, 5, 8} {
		got := run(workers)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: kernel %d = %+v, serial %+v", workers, i, got[i], base[i])
			}
		}
	}
}

// TestRunKernelParDegenerateOracleUnclamped is the degenerate-epoch oracle
// under real concurrency: a non-finite or non-positive epoch means one epoch
// spanning the whole kernel, which is DEFINED as the exact engine — so with
// 8 live workers available the result must still be bit-identical to
// RunKernel, kernel by kernel on warm simulators.
func TestRunKernelParDegenerateOracleUnclamped(t *testing.T) {
	unclampProcs(t, 8)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	specAt := skewedSpecAt(lim)

	par, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		spec := specAt(i)
		epoch := []float64{0, -1, 0}[i%3]
		got := par.RunKernelPar(&spec, 8, epoch)
		want := exact.RunKernel(&spec)
		if got != want {
			t.Fatalf("kernel %d epoch=%v: %+v != RunKernel %+v", i, epoch, got, want)
		}
	}
}

// TestRunSegmentedStealingCachedDeterministicSkewed is the cached-path
// variant: each segment copies its shared cache-owned slice into its own
// window (copy, never alias), and a second pass against the primed cache —
// all hits, finishing in scrambled order — must still be bit-identical.
func TestRunSegmentedStealingCachedDeterministicSkewed(t *testing.T) {
	unclampProcs(t, 8)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	specAt := skewedSpecAt(lim)
	const n, segLen = 96, 4

	want, err := gpu.RunSegmentedEngine(nil, cfg, n, specAt, segLen, 1, nil, gpu.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := simcache.New(simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, workers := range []int{2, 4, 8} {
			got, err := gpu.RunSegmentedEngine(nil, cfg, n, specAt, segLen, workers, cache, gpu.Engine{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pass=%d workers=%d: invocation %d differs from serial", pass, workers, i)
				}
			}
		}
	}
}

// failingCache computes every segment it is asked for and then fails the
// segments in fail, recording which segments were looked up.
type failingCache struct {
	seg  map[gpu.SegmentKey]int // key → segment index
	fail map[int]bool
	ran  []atomic.Bool
}

func (c *failingCache) GetOrCompute(key gpu.SegmentKey, compute func() ([]gpu.KernelResult, error)) ([]gpu.KernelResult, error) {
	sg := c.seg[key]
	c.ran[sg].Store(true)
	results, err := compute()
	if err == nil && c.fail[sg] {
		err = fmt.Errorf("segment %d failed", sg)
	}
	return results, err
}

// TestRunSegmentedEngineReportsLowestFailingSegment pins the error contract:
// when several segments fail, the reported error is the lowest-indexed
// one's at every worker count — even though the lower failing segment holds
// a giant kernel and the higher one finishes first — and every other
// segment still runs.
func TestRunSegmentedEngineReportsLowestFailingSegment(t *testing.T) {
	unclampProcs(t, 8)
	cfg := gpu.Baseline()
	specAt := skewedSpecAt(kernelgen.DSELimits())
	const n, segLen = 48, 4 // giant kernels in segments 0, 4 and 8
	const nseg = n / segLen
	keys := make(map[gpu.SegmentKey]int, nseg)
	for sg := 0; sg < nseg; sg++ {
		specs := make([]kernelgen.Spec, segLen)
		for i := range specs {
			specs[i] = specAt(sg*segLen + i)
		}
		key, _ := gpu.KeyForSegmentEngineAppend(nil, cfg, specs, gpu.Engine{})
		keys[key] = sg
	}
	for workers := 1; workers <= 4; workers++ {
		c := &failingCache{seg: keys, fail: map[int]bool{8: true, 9: true}, ran: make([]atomic.Bool, nseg)}
		got, err := gpu.RunSegmentedEngine(nil, cfg, n, specAt, segLen, workers, c, gpu.Engine{})
		if err == nil || err.Error() != "segment 8 failed" || got != nil {
			t.Fatalf("workers=%d: results %v, err %v; want no results and segment 8's error", workers, got != nil, err)
		}
		for sg := range c.ran {
			if !c.ran[sg].Load() {
				t.Fatalf("workers=%d: segment %d never ran", workers, sg)
			}
		}
	}
}

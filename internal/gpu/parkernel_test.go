package gpu

import (
	"fmt"
	"math"
	"testing"

	"stemroot/internal/metrics"
)

// TestRunKernelParDegenerateEpochMatchesRunKernel pins the degenerate-case
// contract: epoch <= 0 (one epoch spanning the whole kernel) IS the exact
// engine, bit-identical to RunKernel for any worker count. +Inf and NaN
// epochs take the same path.
func TestRunKernelParDegenerateEpochMatchesRunKernel(t *testing.T) {
	cfg := Baseline()
	for _, epoch := range []float64{0, -1, math.Inf(1), math.NaN()} {
		for _, workers := range []int{1, 4} {
			for _, tc := range []struct {
				name string
				mem  float64
				loc  float64
			}{
				{"compute", 0.1, 0.9},
				{"memory", 0.9, 0.2},
				{"mixed", 0.5, 0.5},
			} {
				spec := specFor(tc.mem, tc.loc, 1<<22, 2e6)
				want := mustSim(t, cfg).RunKernel(spec)
				got := mustSim(t, cfg).RunKernelPar(spec, workers, epoch)
				if got != want {
					t.Errorf("epoch=%v workers=%d %s: RunKernelPar=%+v want RunKernel result %+v",
						epoch, workers, tc.name, got, want)
				}
			}
		}
	}
}

// TestRunKernelParFiniteEpochCloseToExact is the engineering sanity bound
// at the kernel level: at the default epoch, relaxed-sync total cycles stay
// within a few percent of the exact engine on representative mixes. (The
// acceptance-grade bound across the DSE suites is internal/pipeline's
// TestParEngineAccuracyContract.)
func TestRunKernelParFiniteEpochCloseToExact(t *testing.T) {
	cfg := Baseline()
	for _, tc := range []struct {
		name  string
		mem   float64
		loc   float64
		work  int64
		bound float64
	}{
		// Toy kernels (~1-7k cycles, a handful of epochs) sit near the
		// worst case for epoch staleness — their whole lifetime is the cold
		// burst phase — so they get a looser 5% bound; the bench-scale
		// kernel carries the 2% acceptance-grade bound.
		{"compute", 0.1, 0.9, 2e6, 0.05},
		{"memory", 0.9, 0.2, 2e6, 0.05},
		{"mixed", 0.5, 0.5, 2e6, 0.05},
		{"bench-scale", 0.5, 0.5, 5e8, 0.02},
	} {
		spec := specFor(tc.mem, tc.loc, 1<<22, tc.work)
		exact := mustSim(t, cfg).RunKernel(spec)
		par := mustSim(t, cfg).RunKernelPar(spec, 4, DefaultEpoch)
		if par.Instructions != exact.Instructions {
			t.Errorf("%s: instructions %d != exact %d (instruction count must be mode-independent)",
				tc.name, par.Instructions, exact.Instructions)
		}
		relErr := math.Abs(par.Cycles-exact.Cycles) / exact.Cycles
		if relErr > tc.bound {
			t.Errorf("%s: cycles error %.4f%% exceeds %.0f%% (par %.0f vs exact %.0f at epoch %v)",
				tc.name, 100*relErr, 100*tc.bound, par.Cycles, exact.Cycles, float64(DefaultEpoch))
		}
	}
}

// TestRunKernelParWorkerCountInvariant pins the core determinism claim at
// the unit level: at a fixed finite epoch, the result is bit-identical for
// every worker count (1..8 and the serial inline path). The -race +
// raised-GOMAXPROCS variant lives in scaling_test.go.
func TestRunKernelParWorkerCountInvariant(t *testing.T) {
	cfg := Baseline()
	spec := specFor(0.6, 0.4, 1<<21, 2e6)
	want := mustSim(t, cfg).RunKernelPar(spec, 1, DefaultEpoch)
	for workers := 2; workers <= 8; workers++ {
		got := mustSim(t, cfg).RunKernelPar(spec, workers, DefaultEpoch)
		if got != want {
			t.Fatalf("workers=%d: %+v != workers=1 result %+v", workers, got, want)
		}
	}
	// Warm arenas must not leak into results: run the kernel twice on two
	// simulators with different worker counts — the L2 legitimately carries
	// over between kernels (same contract as RunKernel), so the second
	// results differ from the first but must still agree with each other.
	a, b := mustSim(t, cfg), mustSim(t, cfg)
	first := a.RunKernelPar(spec, 3, DefaultEpoch)
	if got := b.RunKernelPar(spec, 5, DefaultEpoch); got != first {
		t.Fatalf("first run: workers=5 %+v != workers=3 %+v", got, first)
	}
	secondA := a.RunKernelPar(spec, 3, DefaultEpoch)
	if secondB := b.RunKernelPar(spec, 8, DefaultEpoch); secondB != secondA {
		t.Fatalf("warm rerun: workers=8 %+v != workers=3 %+v", secondB, secondA)
	}
}

// TestRunKernelParSerialSteadyStateAllocs pins the serial par path's
// allocation contract: once the arena has reached its high-water mark,
// RunKernelPar(spec, 1, epoch) runs entirely in reused storage — the same
// zero-allocation steady state RunKernel holds. Two warm-up passes let the
// access buffers and correction arrays finish growing.
func TestRunKernelParSerialSteadyStateAllocs(t *testing.T) {
	sim := mustSim(t, Baseline())
	spec := specFor(0.5, 0.5, 1<<20, 1e7)
	sim.RunKernelPar(spec, 1, DefaultEpoch)
	sim.RunKernelPar(spec, 1, DefaultEpoch)
	if n := testing.AllocsPerRun(3, func() {
		sim.RunKernelPar(spec, 1, DefaultEpoch)
	}); n != 0 {
		t.Fatalf("steady-state serial RunKernelPar allocates %v per run, want 0", n)
	}
}

// BenchmarkRunKernelPar is the scaling ladder for the relaxed-sync engine on
// the same kernel BenchmarkRunKernel runs serially — j4 vs BenchmarkRunKernel
// is the intra-kernel speedup. On fewer than four cores parallel.Workers
// clamps the rungs together.
func BenchmarkRunKernelPar(b *testing.B) {
	spec := specFor(0.5, 0.5, 1<<20, 5e8)
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			sim := mustSim(b, Baseline())
			sim.RunKernelPar(spec, j, DefaultEpoch) // reach the arena's high-water mark
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.RunKernelPar(spec, j, DefaultEpoch)
			}
			b.StopTimer()
			// Barrier-share column, measured on one instrumented run outside
			// the timed region (collection adds two time.Now calls per epoch
			// — noise the timed loop must not carry).
			var bc metrics.BarrierCollector
			sim.SetBarrierCollector(&bc)
			sim.RunKernelPar(spec, j, DefaultEpoch)
			sim.SetBarrierCollector(nil)
			b.ReportMetric(bc.Snapshot().MergeSharePct(), "merge-share-%")
		})
	}
}

// TestCacheProbeIsPure pins probeLine's contract: it returns exactly what Access
// would return, without mutating residency, LRU/MRU state, or statistics —
// interleaved probes must never change the access sequence's outcomes.
func TestCacheProbeIsPure(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 1 << 12, LineBytes: 64, Ways: 2}
	ref := NewCache(cfg)    // driven by Access only
	probed := NewCache(cfg) // same accesses, with probes hammered in between
	addrs := []uint64{0, 64, 4096, 8192, 0, 12288, 64, 4096, 1 << 20, 0}
	for i, a := range addrs {
		// The probe must predict exactly what Access is about to return.
		pr := probed.probeLine(probed.lineIndex(a))
		// Extra probes (all addresses, on both caches) must be invisible.
		for _, b := range addrs {
			probed.probeLine(probed.lineIndex(b))
		}
		got, want := probed.Access(a), ref.Access(a)
		if pr != want {
			t.Fatalf("step %d: probe(%#x)=%v but Access returned %v", i, a, pr, want)
		}
		if got != want {
			t.Fatalf("step %d: probed cache diverged from reference on Access(%#x): %v vs %v", i, a, got, want)
		}
		if probed.Hits != ref.Hits || probed.Misses != ref.Misses {
			t.Fatalf("step %d: stats diverged: probed %d/%d ref %d/%d",
				i, probed.Hits, probed.Misses, ref.Hits, ref.Misses)
		}
	}
}

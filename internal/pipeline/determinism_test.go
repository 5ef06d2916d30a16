package pipeline

import (
	"runtime"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/sampling"
)

// workerCounts are the pool sizes every determinism test compares: the
// forced-serial path, a small fixed pool, one per CPU, and an
// oversubscribed pool.
func workerCounts() []int {
	return []int{1, 2, runtime.NumCPU(), 2 * runtime.NumCPU()}
}

// unclampProcs raises GOMAXPROCS for the duration of a determinism test:
// parallel.Workers clamps pool sizes to available processors, so on a 1-core
// CI machine every workerCounts() entry would silently collapse to the
// serial path and the cross-worker comparison would test nothing. Raising
// GOMAXPROCS restores real concurrent workers (and segments finishing out of
// index order) regardless of the machine. Restored on cleanup.
func unclampProcs(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestFullSimDeterministicAcrossWorkers pins the tentpole contract: the
// segmented parallel simulation is bit-identical at every worker count,
// including the serial path.
func TestFullSimDeterministicAcrossWorkers(t *testing.T) {
	unclampProcs(t)
	w := dseWorkload(t, "heartwall", 40)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()

	want, err := FullSimOpt(w, cfg, lim, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts() {
		got, err := FullSimOpt(w, cfg, lim, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d cycles, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: invocation %d = %v, serial %v",
					workers, i, got[i], want[i])
			}
		}
	}
}

func TestSampledSimDeterministicAcrossWorkers(t *testing.T) {
	unclampProcs(t)
	w := dseWorkload(t, "lud", 40)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	// Every other invocation, then a couple of out-of-order repeats of the
	// sampled-trace-replay shape.
	var indices []int
	for i := 0; i < w.Len(); i += 2 {
		indices = append(indices, i)
	}
	indices = append(indices, 1, 5)

	want, err := SampledSimOpt(w, cfg, lim, indices, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts() {
		got, err := SampledSimOpt(w, cfg, lim, indices, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, ix := range indices {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d = %v, serial %v", workers, ix, got[i], want[i])
			}
		}
	}
}

// TestFullSimParEngineDeterministic pins the composed determinism contract
// at the pipeline layer: under Engine "par", FullSimOpt is bit-identical for
// every (segment workers, intra-kernel workers) combination at a fixed
// epoch — and differs from the exact engine somewhere, so the comparison is
// not vacuous.
func TestFullSimParEngineDeterministic(t *testing.T) {
	unclampProcs(t)
	w := dseWorkload(t, "heartwall", 30)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()

	exact, err := FullSimOpt(w, cfg, lim, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := FullSimOpt(w, cfg, lim, Options{Workers: 1, Engine: gpu.EngineModePar, KernelWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range base {
		if base[i] != exact[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("par and exact cycles identical on every invocation — engine switch is vacuous")
	}
	for _, workers := range []int{2, 4} {
		for _, jkernel := range []int{2, 8} {
			got, err := FullSimOpt(w, cfg, lim, Options{
				Workers: workers, Engine: gpu.EngineModePar, KernelWorkers: jkernel,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("j=%d jkernel=%d: invocation %d = %v, base %v",
						workers, jkernel, i, got[i], base[i])
				}
			}
		}
	}
	if _, err := FullSimOpt(w, cfg, lim, Options{Engine: "fast"}); err == nil {
		t.Fatal("unknown engine mode accepted by the pipeline")
	}
}

// TestRunDeterministicAcrossWorkers runs the whole profile->plan->simulate->
// estimate pipeline and compares every Outcome field bit for bit.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	unclampProcs(t)
	w := dseWorkload(t, "heartwall", 40)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	full, err := FullSimOpt(w, cfg, lim, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunOpt(w, hwmodel.RTX2080, sampling.NewSTEMRoot(1), cfg, lim, full, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts() {
		got, err := RunOpt(w, hwmodel.RTX2080, sampling.NewSTEMRoot(1), cfg, lim, full,
			Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("workers=%d: result %+v differs from serial %+v", workers, *got, *want)
		}
	}
}

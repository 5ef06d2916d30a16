package pipeline

import (
	"runtime"
	"sync"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/sampling"
	"stemroot/internal/simcache"
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

	want, err := SampledSimOpt(nil, w, cfg, lim, indices, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts() {
		got, err := SampledSimOpt(nil, w, cfg, lim, indices, Options{Workers: workers})
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
		if got != want {
			t.Fatalf("workers=%d: result %+v differs from serial %+v", workers, got, want)
		}
	}
}

// TestRunOptConcurrentMatchesSerial pins that RunOpt's recycled scratch is
// private to each call: four goroutines run twelve distinct DSE cells twice
// over, sharing one cache and the idle list, and every Result is bit-identical
// to the cell's serial one and to one computed from an empty idle list, where
// every scratch is new. Cells alternate STEM, which plans into the scratch,
// and PKA, which returns its own plan.
func TestRunOptConcurrentMatchesSerial(t *testing.T) {
	unclampProcs(t)
	isolateIdleSources(t)
	cache, err := simcache.New(simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cells []warmCell
	for i, c := range warmCells(t) {
		if i%5 == 0 {
			cells = append(cells, c)
		}
	}
	lim, opt := kernelgen.DSELimits(), Options{Workers: 1, Cache: cache}
	full := make([][]float64, len(cells))
	for i, c := range cells {
		if full[i], err = FullSimOpt(c.w, c.cfg, lim, opt); err != nil {
			t.Fatal(err)
		}
	}
	run := func(i int) Result {
		var m sampling.Method = sampling.NewSTEMRoot(1)
		if i%2 == 1 {
			m = sampling.NewPKA(1)
		}
		res, err := RunOpt(cells[i].w, hwmodel.RTX2080, m, cells[i].cfg, lim, full[i], opt)
		if err != nil {
			t.Error(err)
			return Result{}
		}
		return res
	}

	serial := make([]Result, len(cells))
	for i := range cells {
		serial[i] = run(i)
	}
	for i := range cells {
		idleSources.Lock()
		idleSources.list = nil
		idleSources.Unlock()
		if got := run(i); got != serial[i] {
			t.Fatalf("cell %d from an empty idle list: %+v, serial %+v", i, got, serial[i])
		}
	}

	got := make([]Result, 2*len(cells))
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g; k < len(got); k += 4 {
				got[k] = run(k % len(cells))
			}
		}()
	}
	wg.Wait()
	for k, r := range got {
		if i := k % len(cells); r != serial[i] {
			t.Fatalf("cell %d, concurrent call %d: %+v, serial %+v", i, k/len(cells), r, serial[i])
		}
	}
}

package pipeline

import (
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
)

func TestSampledSimWarmBasics(t *testing.T) {
	w := dseWorkload(t, "lud", 30)
	lim := kernelgen.DSELimits()
	times, warmCycles, err := SampledSimWarm(w, gpu.Baseline(), lim, []int{2, 10, 11}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("got %d sampled times", len(times))
	}
	if warmCycles <= 0 {
		t.Fatal("warmup cycles should be positive with warmup=2")
	}
	for ix, c := range times {
		if c <= 0 {
			t.Fatalf("sample %d has %v cycles", ix, c)
		}
	}
}

func TestSampledSimWarmZeroMatchesSampledSim(t *testing.T) {
	w := dseWorkload(t, "lud", 30)
	lim := kernelgen.DSELimits()
	idx := []int{0, 5, 9}
	warm, wc, err := SampledSimWarm(w, gpu.Baseline(), lim, idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wc != 0 {
		t.Fatalf("warmup=0 charged %v cycles", wc)
	}
	plain, err := SampledSimOpt(nil, w, gpu.Baseline(), lim, idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, ix := range idx {
		if warm[ix] != plain[i] {
			t.Fatalf("warmup=0 diverges from SampledSimOpt at %d", ix)
		}
	}
}

func TestSampledSimWarmNoDoubleWarm(t *testing.T) {
	// Adjacent samples must not re-simulate kernels already covered.
	w := dseWorkload(t, "lud", 30)
	lim := kernelgen.DSELimits()
	_, wcAdjacent, err := SampledSimWarm(w, gpu.Baseline(), lim, []int{5, 6, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, wcSpread, err := SampledSimWarm(w, gpu.Baseline(), lim, []int{5, 15, 25}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if wcAdjacent >= wcSpread {
		t.Fatalf("adjacent samples should need less warmup: %v vs %v", wcAdjacent, wcSpread)
	}
}

func TestSampledSimWarmErrors(t *testing.T) {
	w := dseWorkload(t, "lud", 10)
	lim := kernelgen.DSELimits()
	if _, _, err := SampledSimWarm(w, gpu.Baseline(), lim, []int{0}, -1); err == nil {
		t.Fatal("expected error for negative warmup")
	}
	if _, _, err := SampledSimWarm(w, gpu.Baseline(), lim, []int{99999}, 1); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
}

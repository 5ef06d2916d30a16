package stemroot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"stemroot/internal/rng"
)

// FuzzSample feeds randomized profiles and options to the public API and
// checks the invariants every accepted plan must satisfy: full coverage,
// weights consistent with cluster populations, and an estimate within the
// error bound when evaluated against its own profile. Options outside the
// domain must be refused by name — a zero field is the only "default".
func FuzzSample(f *testing.F) {
	f.Add(uint64(1), 500, 3, 0.0, 0.0)
	f.Add(uint64(7), 50, 1, 0.02, 0.99)
	f.Add(uint64(42), 2000, 5, 0.0, 0.0)
	f.Add(uint64(3), 300, 2, -0.05, math.NaN())          // degenerate: each was once "unset"
	f.Add(uint64(3), 300, 2, 0.05, 0.9999999999999999)   // in (0,1), and no z-score
	f.Add(uint64(5), 400, 4, 5e-324, 0.9999999999999998) // the domain's far corners
	f.Fuzz(func(t *testing.T, seed uint64, n, kinds int, epsilon, confidence float64) {
		if n <= 0 || n > 5000 || kinds <= 0 || kinds > 16 {
			t.Skip()
		}
		r := rng.New(seed)
		names := make([]string, n)
		times := make([]float64, n)
		letters := "abcdefghijklmnop"
		for i := range names {
			k := r.Intn(kinds)
			names[i] = letters[k : k+1]
			base := float64(1+k) * 10
			if r.Float64() < 0.3 {
				base *= 4 // second context
			}
			times[i] = base * math.Exp(0.1*r.NormFloat64())
		}

		plan, err := Sample(names, times, Options{Seed: seed, Epsilon: epsilon, Confidence: confidence})
		inDomain := (epsilon == 0 || epsilon > 0 && epsilon < 1) &&
			(confidence == 0 || confidence > 0 && confidence < math.Nextafter(1, 0))
		if !inDomain {
			if !errors.Is(err, ErrEpsilon) && !errors.Is(err, ErrConfidence) {
				t.Fatalf("ε=%v confidence=%v: err = %v, want a named option error", epsilon, confidence, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid profile rejected: %v", err)
		}
		seen := make(map[int]bool)
		for _, c := range plan.Clusters {
			for _, m := range c.Members {
				if m < 0 || m >= n || seen[m] {
					t.Fatal("bad cluster membership")
				}
				seen[m] = true
			}
			if len(c.Samples) > 0 && c.Weight <= 0 {
				t.Fatal("sampled cluster with non-positive weight")
			}
			for _, s := range c.Samples {
				if s < 0 || s >= n {
					t.Fatal("sample index out of range")
				}
			}
		}
		if len(seen) != n {
			t.Fatalf("clusters cover %d of %d", len(seen), n)
		}

		var truth float64
		for _, v := range times {
			truth += v
		}
		est := plan.Estimate(func(i int) float64 { return times[i] })
		// The bound is scored where the CLT has a chance: not at a
		// confidence whose z is near 0, nor at an ε below what draws with
		// replacement from small clusters can meet (ROADMAP item 1a).
		scored := (epsilon == 0 || epsilon >= 0.01) && (confidence == 0 || confidence >= 0.9)
		if truth > 0 && scored {
			// Allow 3x the bound: a fuzz case is a single draw at 95%
			// confidence, and tiny n makes the CLT approximation loose.
			if rel := math.Abs(est-truth) / truth; rel > 3*plan.Epsilon {
				t.Fatalf("error %v far exceeds bound %v (n=%d)", rel, plan.Epsilon, n)
			}
		}
	})
}

// FuzzSampleParallel feeds randomized profiles through the parallel
// clustering path and demands the plan be identical to the serial one —
// the worker pool must never change any output bit.
func FuzzSampleParallel(f *testing.F) {
	f.Add(uint64(1), 500, 3, 4)
	f.Add(uint64(7), 50, 1, 2)
	f.Add(uint64(42), 2000, 5, 13)
	f.Fuzz(func(t *testing.T, seed uint64, n, kinds, workers int) {
		if n <= 0 || n > 5000 || kinds <= 0 || kinds > 16 || workers < 2 || workers > 64 {
			t.Skip()
		}
		r := rng.New(seed)
		names := make([]string, n)
		times := make([]float64, n)
		letters := "abcdefghijklmnop"
		for i := range names {
			k := r.Intn(kinds)
			names[i] = letters[k : k+1]
			times[i] = float64(1+k) * 10 * math.Exp(0.1*r.NormFloat64())
		}

		serial, err := Sample(names, times, Options{Seed: seed, Parallelism: 1})
		if err != nil {
			t.Fatalf("valid profile rejected: %v", err)
		}
		par, err := Sample(names, times, Options{Seed: seed, Parallelism: workers})
		if err != nil {
			t.Fatalf("parallel path rejected what serial accepted: %v", err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("plan differs between 1 and %d workers (n=%d kinds=%d)", workers, n, kinds)
		}
	})
}

// FuzzPlanJSON pins the plan codec: for arbitrary kernel strings, index
// lists and finite floats WriteJSON emits exactly the bytes of the
// reflective encoding/json Encoder without SetIndent (referencePlanJSON)
// and the plan reads back equal; and arbitrary bytes never panic
// ReadPlanJSON.
func FuzzPlanJSON(f *testing.F) {
	f.Add("gemm", "relu", []byte{0, 1, 2, 200, 3}, 0.05, 1e-9, 1e22, []byte(`{"version":1,"clusters":null}`))
	f.Add("<a>&\u2028", "\xff\"\\", []byte{}, -0.0, 5e-324, 1e21, []byte(`{"version":1,"clusters":[{"kernel":"k","members":[-1]}]}`))
	f.Add("", "", []byte{255, 255, 255, 255, 255, 255, 255, 255, 9}, 1e-7, 123456.789, 1e20, []byte("{"))
	f.Add("k", "k", []byte{7}, 0.01, 0.99, 0.5, []byte("{\"version\":1,\"clusters\":null}\n{\"version\":1} x"))
	f.Fuzz(func(t *testing.T, k1, k2 string, idx []byte, a, b, c float64, doc []byte) {
		if _, err := ReadPlanJSON(bytes.NewReader(doc)); err != nil {
			_ = err // any error is fine; a panic is not
		}

		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		// Index lists from the bytes: 8-byte chunks give the full int range,
		// the tail gives small values; split three ways, nil and empty
		// included.
		var ints []int
		for len(idx) >= 8 {
			ints = append(ints, int(binary.LittleEndian.Uint64(idx)))
			idx = idx[8:]
		}
		for _, x := range idx {
			ints = append(ints, int(x))
		}
		cut := (len(ints) + 1) / 2
		plan := &Plan{Epsilon: a, Confidence: b, PredictedError: c}
		if len(k1)+len(k2)+len(ints) > 0 {
			plan.Clusters = []Cluster{
				{Kernel: k1, Members: ints[:cut], Population: cut, Samples: ints[cut:], Weight: math.Abs(a), Mean: b, StdDev: c},
				{Kernel: k1, Members: nil, Samples: []int{}, Weight: math.Abs(c), Mean: a, StdDev: b},
				{Kernel: k2, Members: ints, Population: len(ints), Samples: nil, Weight: math.Abs(b), Mean: c, StdDev: a},
			}
		}
		js := checkPlanJSONMatchesReference(t, plan)

		back, err := ReadPlanJSON(bytes.NewReader(js))
		negative := false
		for _, x := range ints {
			negative = negative || x < 0
		}
		if negative {
			if err == nil {
				t.Fatalf("plan with a negative index read back without error: %s", js)
			}
			return
		}
		if err != nil {
			t.Fatalf("ReadPlanJSON(WriteJSON(p)): %v\n%s", err, js)
		}
		// JSON has one spelling for a string that is not valid UTF-8; the
		// plan must survive the trip once its names are in that spelling.
		for i := range plan.Clusters {
			plan.Clusters[i].Kernel = string([]rune(plan.Clusters[i].Kernel)) // U+FFFD per invalid byte
		}
		if !reflect.DeepEqual(back, plan) {
			t.Fatalf("round trip changed the plan\n got %+v\nwant %+v\n%s", back, plan, js)
		}
	})
}

package stemroot

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"stemroot/internal/rng"
	"stemroot/internal/sampling"
)

type sliceScanner struct {
	names []string
	times []float64
}

func (s sliceScanner) Scan(yield func(string, float64) bool) error {
	for i := range s.names {
		if !yield(s.names[i], s.times[i]) {
			return nil
		}
	}
	return nil
}

func TestSampleStreamEndToEnd(t *testing.T) {
	names, times := syntheticProfile(30000, 8)
	plan, err := SampleStream(sliceScanner{names, times}, Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var truth float64
	for _, tt := range times {
		truth += tt
	}
	est := plan.Estimate(func(i int) float64 { return times[i] })
	if rel := math.Abs(est-truth) / truth; rel > plan.Epsilon {
		t.Fatalf("streaming error %v exceeds bound %v", rel, plan.Epsilon)
	}
	if n := len(plan.SampledIndices()); n == 0 || n >= len(times)/4 {
		t.Fatalf("sampled %d of %d", n, len(times))
	}
}

func TestSampleStreamTinyReservoir(t *testing.T) {
	names, times := syntheticProfile(10000, 9)
	plan, err := SampleStream(sliceScanner{names, times}, Options{},
		StreamOptions{ReservoirCap: 128})
	if err != nil {
		t.Fatal(err)
	}
	var truth float64
	for _, tt := range times {
		truth += tt
	}
	est := plan.Estimate(func(i int) float64 { return times[i] })
	if rel := math.Abs(est-truth) / truth; rel > plan.Epsilon {
		t.Fatalf("tiny-reservoir error %v exceeds bound", rel)
	}
}

func TestSampleStreamErrors(t *testing.T) {
	if _, err := SampleStream(sliceScanner{}, Options{}, StreamOptions{}); err == nil {
		t.Fatal("expected error for empty stream")
	}
	names, times := syntheticProfile(100, 10)
	if _, err := SampleStream(sliceScanner{names, times}, Options{Epsilon: 5}, StreamOptions{}); err == nil {
		t.Fatal("expected bad-epsilon error")
	}
}

func TestSampleStreamSingleKernel(t *testing.T) {
	// One kernel, one narrow mode: the degenerate but legal trace.
	names := make([]string, 500)
	times := make([]float64, 500)
	for i := range names {
		names[i] = "only"
		times[i] = 3.5
	}
	plan, err := SampleStream(sliceScanner{names, times}, Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) == 0 {
		t.Fatal("no clusters for single-kernel trace")
	}
	for _, c := range plan.Clusters {
		if c.Kernel != "only" {
			t.Fatalf("unexpected kernel %q", c.Kernel)
		}
	}
	est := plan.Estimate(func(i int) float64 { return times[i] })
	if math.Abs(est-3.5*500) > 1e-6 {
		t.Fatalf("constant-trace estimate %v, want %v", est, 3.5*500)
	}
}

// failingScanner yields its rows, or fails with errScannerBroke when
// broken; a second Scan call is an error either way, because a one-shot
// source such as stdin cannot be re-read.
type failingScanner struct {
	names   []string
	times   []float64
	broken  bool
	scanned bool
}

func (s *failingScanner) Scan(yield func(string, float64) bool) error {
	if s.scanned {
		return errors.New("one-shot scanner scanned twice")
	}
	s.scanned = true
	if s.broken {
		return errScannerBroke
	}
	for i := range s.names {
		if !yield(s.names[i], s.times[i]) {
			return nil
		}
	}
	return nil
}

var errScannerBroke = errors.New("scanner broke")

func TestSampleStreamScanErrorPropagation(t *testing.T) {
	names, times := syntheticProfile(1000, 11)
	sc := &failingScanner{names: names, times: times, broken: true}
	if _, err := SampleStream(sc, Options{}, StreamOptions{}); !errors.Is(err, errScannerBroke) {
		t.Fatalf("scanner error not propagated: %v", err)
	}
}

func TestSampleStreamScansOnce(t *testing.T) {
	names, times := syntheticProfile(1000, 11)
	plan, err := SampleStream(&failingScanner{names: names, times: times}, Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) == 0 {
		t.Fatal("no clusters")
	}
}

// TestSampleStreamPinnedPlans pins SampleStream's plan JSON. The rows at
// the default cap keep every kernel inside its reservoir; the rows at caps
// 64 and 512 overflow every kernel's reservoir, so they pin slot
// replacement and the over-capacity statistics. The hashes of every row
// that splits were recorded when ROOT's splits became exact least-squares
// cuts of the sorted times; the Flat rows' are older. Each plan is hashed
// through the indented encoding/json Encoder, the bytes WriteJSON wrote
// when the Flat rows were recorded, so its compact output leaves them
// standing.
func TestSampleStreamPinnedPlans(t *testing.T) {
	synth := func() ([]string, []float64) { return syntheticProfile(20000, 12) }
	small := func() ([]string, []float64) { return syntheticProfile(3000, 13) }
	lognormal := func() ([]string, []float64) { return lognormalProfile(20000, 21) }
	for _, c := range []struct {
		profile func() ([]string, []float64)
		opts    Options
		sopts   StreamOptions
		sha256  string
	}{
		{small, Options{}, StreamOptions{}, "dc66e3b3b7a50262e5ed641626479cb0054d2c92b71f5628e04ef36298a0062d"},
		{small, Options{Epsilon: 0.01, Seed: 7}, StreamOptions{}, "05bb5cfa85ac4305835fa09f9a5b7f6a32220f2f36863857461a26203be09e7f"},
		{small, Options{Flat: true}, StreamOptions{}, "38c0350af20632d69514ce2a699c82c3ec21e47448f0ec6c156be4051afebd43"},
		{synth, Options{}, StreamOptions{}, "5bf218c77c1303a297c67497c5475b89d096ac3bc3e4093e658ad07454ad7285"},
		{synth, Options{Epsilon: 0.01, Seed: 7}, StreamOptions{}, "e3d1c2b1d804ff379e9f516938eec7184534c99020d237375afb9878d2430b96"},
		{synth, Options{Flat: true}, StreamOptions{}, "04b991a7f54f4881488f1f0797cee95d121546e857346c862c2aed754f73170a"},
		{lognormal, Options{}, StreamOptions{}, "fc7f83b2ba138fca0f0a0a307a94ce635bad21db81c72ec5a0bfbbf5a332f7c7"},
		{lognormal, Options{Epsilon: 0.01, Seed: 7}, StreamOptions{}, "b4cc469c63a7190a4b20874c49791b0b67720d4dfa8ca0d366754c05f0dac36a"},
		{lognormal, Options{Flat: true}, StreamOptions{}, "cc5406434f096312dd8bc25a107bfa1d23142e27ac647835ba5f27ccd3616eb5"},
		{lognormal, Options{SmallSampleT: true}, StreamOptions{}, "fc7f83b2ba138fca0f0a0a307a94ce635bad21db81c72ec5a0bfbbf5a332f7c7"},
		{synth, Options{}, StreamOptions{ReservoirCap: 64}, "0eeb64e5b716cc7572dff2cda2f44d6db637356eefb4cca135b696d2cddbf4ee"},
		{synth, Options{Epsilon: 0.01, Seed: 7}, StreamOptions{ReservoirCap: 64}, "d4a3df87b0e034db6a9b1a7ea8d08c338c6ab5e8a4945bf9c0f9d45ae38d6f1f"},
		{synth, Options{}, StreamOptions{ReservoirCap: 512}, "3bbd5b3fa45513c7af1ea155d50400b000091a9924663f0cbf100fee2b5392cb"},
		{synth, Options{Epsilon: 0.01, Seed: 7}, StreamOptions{ReservoirCap: 512}, "1b18f5105848a5dc91edff9d32df386a780365dc7456390f1ec57d73b76adf90"},
		{lognormal, Options{}, StreamOptions{ReservoirCap: 64}, "1a13e56bc62e252f3b1978002356217d69d3cd26f438e374a3638ecc5d2d93b9"},
		{lognormal, Options{Epsilon: 0.01, Seed: 7}, StreamOptions{ReservoirCap: 64}, "9daf99383875bd5bfbefab6c7cf06881a38f5e18a920e9661b34ab445f38b4dd"},
		{lognormal, Options{}, StreamOptions{ReservoirCap: 512}, "e7bfa7c2c34b5351678724c2a4b64ccf079d2ab6c895395305473e54f37246bc"},
		{lognormal, Options{Epsilon: 0.01, Seed: 7}, StreamOptions{ReservoirCap: 512}, "7cce87c3f5d24b97af39bca5fcf34f7277883acd866478128f1fa9e189d8dae4"},
	} {
		names, times := c.profile()
		plan, err := SampleStream(sliceScanner{names, times}, c.opts, c.sopts)
		if err != nil {
			t.Fatal(err)
		}
		js, err := indentedPlanJSON(plan)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(js)
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%d rows, %+v, %+v: plan JSON sha256 %s, pinned %s", len(names), c.opts, c.sopts, got, c.sha256)
		}
	}
}

// lognormalProfile interleaves four lognormal kernels of growing spread.
func lognormalProfile(n int, seed uint64) ([]string, []float64) {
	kernels := [4]string{"attn", "gemm", "norm", "softmax"}
	r := rng.New(seed)
	names := make([]string, n)
	times := make([]float64, n)
	for i := range names {
		k := i % len(kernels)
		names[i] = kernels[k]
		times[i] = r.LogNormal(float64(k), 0.3+0.2*float64(k))
	}
	return names, times
}

// TestSampleStreamCoverageOverCapacity scores the realised profile-time
// coverage of plans whose kernels overflow their reservoirs, where cluster
// statistics are reservoir estimates: over 300 plan seeds, the share of
// plans whose extrapolation lands within ε of the true total must not be
// credibly below the 95 % confidence (Wilson upper limit >= 0.95).
func TestSampleStreamCoverageOverCapacity(t *testing.T) {
	const seeds, confidence = 300, 0.95
	names, times := lognormalProfile(20000, 21)
	var truth float64
	for _, v := range times {
		truth += v
	}
	for _, rcap := range []int{256, 512} {
		for _, eps := range []float64{0.01, 0.05} {
			var cell sampling.Coverage
			for seed := 1; seed <= seeds; seed++ {
				plan, err := SampleStream(sliceScanner{names, times},
					Options{Epsilon: eps, Confidence: confidence, Seed: uint64(seed)},
					StreamOptions{ReservoirCap: rcap})
				if err != nil {
					t.Fatal(err)
				}
				var out sampling.Outcome
				out.ErrorPct, _ = sampling.Score(plan.Estimate(func(i int) float64 { return times[i] }), truth, 0)
				cell.Add(out, eps)
			}
			_, hi := cell.Wilson(1.959963984540054)
			t.Logf("cap %d, ε %.2f: %d/%d covered, Wilson upper %.3f", rcap, eps, cell.Covered, cell.Plans, hi)
			if hi < confidence {
				t.Errorf("cap %d, ε %.2f: coverage %d/%d, Wilson upper %.3f < %.2f", rcap, eps, cell.Covered, cell.Plans, hi, confidence)
			}
		}
	}
}

func TestSampleStreamDeterministicAcrossRuns(t *testing.T) {
	// Fixed seed -> bit-identical plans (the reservoir RNG and the sample
	// draws are derived from the seed; clustering reads the times alone).
	names, times := syntheticProfile(20000, 12)
	a, err := SampleStream(sliceScanner{names, times}, Options{Seed: 99}, StreamOptions{ReservoirCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleStream(sliceScanner{names, times}, Options{Seed: 99}, StreamOptions{ReservoirCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated SampleStream runs differ at fixed seed")
	}
}

func TestStreamPlannerMatchesSampleStream(t *testing.T) {
	// SampleStream is a driver over the same planner: feeding the rows by
	// hand gives the identical plan.
	names, times := syntheticProfile(3000, 13)
	want, err := SampleStream(sliceScanner{names, times}, Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewStreamPlanner(Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		sp.Add(names[i], times[i])
	}
	got, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("StreamPlanner plan differs from SampleStream")
	}
}

// TestSampleStreamMatchesSample pins the equivalence the one plan
// derivation rests on: when every kernel fits its reservoir, the streaming
// planner holds exactly the batch planner's rows, so SampleStream and Sample
// derive the same clusters — kernel, population, mean, deviation, weight
// and sample count, bit for bit — and the same PredictedError. Only the
// drawn invocations differ: each front end seeds its own draws.
func TestSampleStreamMatchesSample(t *testing.T) {
	for _, profile := range []func() ([]string, []float64){
		func() ([]string, []float64) { return syntheticProfile(20000, 12) },
		func() ([]string, []float64) { return lognormalProfile(20000, 21) },
	} {
		names, times := profile()
		for _, opts := range []Options{{}, {Flat: true}, {SmallSampleT: true}, {Epsilon: 0.01, Seed: 7, SmallSampleT: true}, {Epsilon: 0.01, Flat: true}} {
			batch, err := Sample(names, times, opts)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := SampleStream(sliceScanner{names, times}, opts, StreamOptions{ReservoirCap: len(names)})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(stream.PredictedError) != math.Float64bits(batch.PredictedError) || len(stream.Clusters) != len(batch.Clusters) {
				t.Fatalf("%+v: streaming plan has %d clusters, predicted error %v; batch %d, %v",
					opts, len(stream.Clusters), stream.PredictedError, len(batch.Clusters), batch.PredictedError)
			}
			for i := range batch.Clusters {
				s, b := &stream.Clusters[i], &batch.Clusters[i]
				if s.Kernel != b.Kernel || s.Population != b.Population || len(s.Samples) != len(b.Samples) ||
					math.Float64bits(s.Mean) != math.Float64bits(b.Mean) || math.Float64bits(s.StdDev) != math.Float64bits(b.StdDev) ||
					math.Float64bits(s.Weight) != math.Float64bits(b.Weight) {
					t.Fatalf("%+v: cluster %d is %q N=%d m=%d mean %v sd %v weight %v when streamed, %q N=%d m=%d mean %v sd %v weight %v in batch",
						opts, i, s.Kernel, s.Population, len(s.Samples), s.Mean, s.StdDev, s.Weight,
						b.Kernel, b.Population, len(b.Samples), b.Mean, b.StdDev, b.Weight)
				}
			}
		}
	}
}

func TestStreamPlannerSnapshot(t *testing.T) {
	names, times := syntheticProfile(20000, 14)
	sp, err := NewStreamPlanner(Options{}, StreamOptions{ReservoirCap: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Snapshot(); err == nil {
		t.Fatal("expected error snapshotting an empty stream")
	}
	var truth float64
	for i := range names {
		sp.Add(names[i], times[i])
		truth += times[i]
	}
	snap, err := sp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Invocations != 20000 || snap.Kernels == 0 || snap.Clusters == 0 {
		t.Fatalf("snapshot %+v", snap)
	}
	if math.Abs(snap.TotalTimeUS-truth)/truth > 1e-12 {
		t.Fatalf("snapshot total %v vs exact %v", snap.TotalTimeUS, truth)
	}
	// The rolling extrapolation is within the error bound of the truth.
	if rel := math.Abs(snap.ExtrapolatedUS-truth) / truth; rel > 0.05 {
		t.Fatalf("extrapolation off by %v (extrapolated %v, exact %v)", rel, snap.ExtrapolatedUS, truth)
	}
	if snap.DistinctTimeUS <= 0 || snap.DistinctTimeUS >= truth {
		t.Fatalf("distinct sampled time %v out of range", snap.DistinctTimeUS)
	}
}

// TestCurrentPlanClustersAreTheCallers: a caller may reorder a returned
// plan's clusters in place, as -stream -v does to print them, without
// changing the plan the planner keeps serving.
func TestCurrentPlanClustersAreTheCallers(t *testing.T) {
	names, times := syntheticProfile(5000, 14)
	sp, err := NewStreamPlanner(Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		sp.Add(names[i], times[i])
	}
	first, err := sp.CurrentPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Clusters) < 2 {
		t.Fatalf("%d clusters: nothing to reorder", len(first.Clusters))
	}
	want := slices.Clone(first.Clusters)
	slices.Reverse(first.Clusters)
	again, err := sp.CurrentPlan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Clusters, want) {
		t.Fatal("reordering a returned plan's clusters reordered the planner's cached plan")
	}
}

// TestClusterPopulationsSumToInvocations pins Cluster.Population: in a batch
// plan it is each cluster's member count, and in a streaming plan whose
// reservoirs overflow (so weights carry calibration as well as counts) the
// populations still sum to the exact number of invocations streamed.
func TestClusterPopulationsSumToInvocations(t *testing.T) {
	const n = 10000
	names, times := syntheticProfile(n, 9)
	batch, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := SampleStream(sliceScanner{names, times}, Options{}, StreamOptions{ReservoirCap: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan *Plan
	}{{"batch", batch}, {"stream", stream}} {
		sum, weighted := 0, 0.0
		for _, c := range tc.plan.Clusters {
			if tc.plan == batch && c.Population != len(c.Members) {
				t.Fatalf("batch cluster %q: population %d, %d members", c.Kernel, c.Population, len(c.Members))
			}
			sum += c.Population
			weighted += c.Weight * float64(len(c.Samples))
		}
		if sum != n {
			t.Errorf("%s: populations sum to %d, want %d (weight × samples sums to %.1f)", tc.name, sum, n, weighted)
		}
	}
}

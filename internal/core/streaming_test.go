package core

// The TestBuildPlanStream* tests pin the plan the streaming planner builds
// from a whole stream: within the error bound, close to the in-memory
// planner's effort, and with valid sample indices.

import (
	"math"
	"testing"
	"unsafe"

	"stemroot/internal/rng"
)

func TestReservoirUniformity(t *testing.T) {
	// Mean of the reservoir approximates the stream mean, and every kept
	// value travels with its own stream position.
	r := rng.New(31)
	rv := pairReservoir{cap: 500, r: rng.New(32)}
	var sum float64
	const n = 50000
	stream := make([]float64, n)
	for i := range stream {
		v := r.Float64() * 100
		stream[i] = v
		sum += v
		rv.add(v, i)
	}
	var rsum float64
	for j := range rv.filled() {
		v, pos := rv.at(j)
		if stream[pos] != v {
			t.Fatalf("slot %d holds %v but position %d had %v", j, v, pos, stream[pos])
		}
		rsum += v
	}
	streamMean := sum / n
	resMean := rsum / float64(rv.filled())
	if math.Abs(resMean-streamMean) > 3 {
		t.Fatalf("reservoir mean %v vs stream mean %v", resMean, streamMean)
	}
	if rv.seen != n || rv.filled() != 500 {
		t.Fatalf("reservoir state: seen=%d filled=%d", rv.seen, rv.filled())
	}
}

// TestReservoirStorageIsNeverCopied pins the block layout's bound: filling
// a cap-8192 reservoir and replacing slots for 50,000 adds allocates the
// 8192 pairs once, plus the block list — where growing one flat pair of
// arrays by doubling allocated 16,320 pairs to keep 8192. A name seen n
// times below the cap holds at most max(64, 2n) slots, and every slot
// holds what was added to it.
func TestReservoirStorageIsNeverCopied(t *testing.T) {
	for _, n := range []int{1, 64, 65, 100, 129, 1000, 4097} {
		rv := pairReservoir{cap: 8192, r: rng.New(1)}
		for i := range n {
			rv.add(float64(i), i)
		}
		slots := 0
		for _, b := range rv.blocks {
			slots += cap(b.vals)
		}
		if slots > max(64, 2*n) || rv.filled() != n {
			t.Fatalf("%d adds: %d filled slots in %d, want %d in at most %d", n, rv.filled(), slots, n, max(64, 2*n))
		}
		for j := range n {
			if v, pos := rv.at(j); v != float64(j) || pos != j {
				t.Fatalf("%d adds: slot %d holds (%v, %d)", n, j, v, pos)
			}
		}
	}

	if raceEnabled {
		t.Skip("race runtime distorts allocation accounting")
	}
	// What the runtime allocates on its own meanwhile only adds to a
	// reading, so the least of a few fresh fills is the reservoir's own.
	const rcap, adds = 8192, 50_000
	var rv pairReservoir
	got := uint64(math.MaxUint64)
	for range 5 {
		rv = pairReservoir{cap: rcap, r: rng.New(2)}
		got = min(got, allocatedBy(func() {
			for i := range adds {
				rv.add(float64(i), i)
			}
		}))
	}
	pairs := rcap * int(unsafe.Sizeof(float64(0))+unsafe.Sizeof(int(0)))
	headers := cap(rv.blocks) * int(unsafe.Sizeof(pairBlock{}))
	if got > uint64(pairs+headers) {
		t.Fatalf("%d adds to a cap-%d reservoir allocated %d B, want at most %d B of pairs plus %d B of block headers",
			adds, rcap, got, pairs, headers)
	}
	slots := 0
	for _, b := range rv.blocks {
		slots += len(b.vals)
	}
	if slots != rcap || rv.filled() != rcap {
		t.Fatalf("full reservoir holds %d slots (filled %d), want %d", slots, rv.filled(), rcap)
	}
}

func TestBuildPlanStreamMatchesInMemory(t *testing.T) {
	names, times := bimodalTimes(30000, 41)
	p := defaultP()

	mem, err := BuildPlan(names, times, p)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := feedIncremental(t, names, times, p, StreamOptions{}).Plan()
	if err != nil {
		t.Fatal(err)
	}

	var truth float64
	for _, tt := range times {
		truth += tt
	}
	memEst := mem.Estimate(func(i int) float64 { return times[i] })
	strEst := stream.Estimate(func(i int) float64 { return times[i] })
	memErr := math.Abs(memEst-truth) / truth
	strErr := math.Abs(strEst-truth) / truth
	if strErr > p.Epsilon {
		t.Fatalf("streaming plan error %v exceeds bound", strErr)
	}
	if memErr > p.Epsilon {
		t.Fatalf("in-memory plan error %v exceeds bound", memErr)
	}
	// Similar sampling effort (within 3x either way).
	ratio := float64(stream.TotalSamples()) / float64(mem.TotalSamples())
	if ratio > 3 || ratio < 1.0/3 {
		t.Fatalf("streaming samples %d vs in-memory %d", stream.TotalSamples(), mem.TotalSamples())
	}
}

func TestBuildPlanStreamBoundedMemoryReservoir(t *testing.T) {
	// A small reservoir still yields a within-bound plan.
	names, times := bimodalTimes(20000, 42)
	p := defaultP()
	plan, err := feedIncremental(t, names, times, p, StreamOptions{ReservoirCap: 256}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	var truth float64
	for _, tt := range times {
		truth += tt
	}
	est := plan.Estimate(func(i int) float64 { return times[i] })
	if rel := math.Abs(est-truth) / truth; rel > p.Epsilon {
		t.Fatalf("small-reservoir error %v exceeds bound", rel)
	}
}

func TestBuildPlanStreamSeparatesPeaks(t *testing.T) {
	names, times := bimodalTimes(20000, 43)
	plan, err := feedIncremental(t, names, times, defaultP(), StreamOptions{}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) < 2 {
		t.Fatalf("streaming ROOT kept %d cluster(s) for bimodal kernel", len(plan.Clusters))
	}
	for _, c := range plan.Clusters {
		if cov := statsOf(&c).CoV(); c.Population > 100 && cov > 0.1 {
			t.Fatalf("streaming leaf CoV %v — peaks not separated", cov)
		}
	}
}

func TestBuildPlanStreamErrors(t *testing.T) {
	if _, err := feedIncremental(t, nil, nil, defaultP(), StreamOptions{}).Plan(); err == nil {
		t.Fatal("expected error for empty stream")
	}
	bad := defaultP()
	bad.Epsilon = 0
	if _, err := NewIncrementalPlanner(bad, StreamOptions{}); err == nil {
		t.Fatal("expected param error")
	}
}

func TestBuildPlanStreamSampleIndicesValid(t *testing.T) {
	names, times := bimodalTimes(5000, 44)
	plan, err := feedIncremental(t, names, times, defaultP(), StreamOptions{}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.Clusters {
		for _, s := range c.Samples {
			if s < 0 || s >= len(times) {
				t.Fatalf("sample index %d out of range", s)
			}
		}
	}
}

package core

// The TestBuildPlanStream* tests pin the plan the streaming planner builds
// from a whole stream: within the error bound, close to the in-memory
// planner's effort, and with valid sample indices.

import (
	"math"
	"testing"

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
	for j, pos := range rv.pos {
		if stream[pos] != rv.vals[j] {
			t.Fatalf("slot %d holds %v but position %d had %v", j, rv.vals[j], pos, stream[pos])
		}
	}
	streamMean := sum / n
	var rsum float64
	for _, v := range rv.vals {
		rsum += v
	}
	resMean := rsum / float64(len(rv.vals))
	if math.Abs(resMean-streamMean) > 3 {
		t.Fatalf("reservoir mean %v vs stream mean %v", resMean, streamMean)
	}
	if rv.seen != n || len(rv.vals) != 500 {
		t.Fatalf("reservoir state: seen=%d len=%d", rv.seen, len(rv.vals))
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

package core

import (
	"math"
	"testing"

	"stemroot/internal/rng"
)

func TestSliceScanner(t *testing.T) {
	s := SliceScanner{Names: []string{"a", "b"}, Times: []float64{1, 2}}
	var got []string
	if err := s.Scan(func(n string, _ float64) bool {
		got = append(got, n)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scanned %d", len(got))
	}
	// Early stop.
	count := 0
	_ = s.Scan(func(string, float64) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop scanned %d", count)
	}
	bad := SliceScanner{Names: []string{"a"}, Times: nil}
	if err := bad.Scan(func(string, float64) bool { return true }); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Mean of the reservoir approximates the stream mean.
	r := rng.New(31)
	rv := newReservoir[float64](500, rng.New(32))
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.Float64() * 100
		sum += v
		rv.add(v)
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
	stream, err := BuildPlanStream(SliceScanner{Names: names, Times: times}, p, StreamOptions{})
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
	plan, err := BuildPlanStream(SliceScanner{Names: names, Times: times}, p,
		StreamOptions{ReservoirCap: 256})
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
	plan, err := BuildPlanStream(SliceScanner{Names: names, Times: times}, defaultP(), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) < 2 {
		t.Fatalf("streaming ROOT kept %d cluster(s) for bimodal kernel", len(plan.Clusters))
	}
	for _, c := range plan.Clusters {
		if c.Stats.N > 100 && c.Stats.CoV() > 0.1 {
			t.Fatalf("streaming leaf CoV %v — peaks not separated", c.Stats.CoV())
		}
	}
}

func TestBuildPlanStreamErrors(t *testing.T) {
	if _, err := BuildPlanStream(SliceScanner{}, defaultP(), StreamOptions{}); err == nil {
		t.Fatal("expected error for empty stream")
	}
	bad := defaultP()
	bad.Epsilon = 0
	if _, err := BuildPlanStream(SliceScanner{Names: []string{"a"}, Times: []float64{1}}, bad, StreamOptions{}); err == nil {
		t.Fatal("expected param error")
	}
}

func TestBuildPlanStreamSampleIndicesValid(t *testing.T) {
	names, times := bimodalTimes(5000, 44)
	plan, err := BuildPlanStream(SliceScanner{Names: names, Times: times}, defaultP(), StreamOptions{})
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

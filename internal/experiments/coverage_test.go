package experiments

import (
	"strings"
	"testing"
)

// TestCoverage runs the coverage grid of `-run confidence` at Quick and
// holds STEM's ε-bound to it. On profile time every workload's Wilson upper
// limit must reach the nominal confidence, and each suite's mean error must
// stay within ε. The cycles rows, at caps 40 and 120, are reported: plans
// are sized on profile time and scored on cycles, and their coverage sits
// below nominal (EXPERIMENTS "STEM's bound, empirically").
func TestCoverage(t *testing.T) {
	cfg := Quick()
	res, err := Confidence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DSEMaxCalls = 120
	cap120, err := dseCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suites) != len(table3Suites)+1 {
		t.Fatalf("%d suites, want table3's %d and the DSE suite", len(res.Suites), len(table3Suites))
	}
	for _, s := range append(res.Suites, cap120) {
		lo, hi := s.Pooled.Wilson(wilsonZ)
		name, lowest := s.Lowest()
		t.Logf("%s %s: %d/%d = %.3f [%.3f, %.3f], %.2f samples per plan, mean error %.3f%%; lowest workload upper limit %.3f (%s)",
			s.Suite, s.Truth, s.Pooled.Covered, s.Pooled.Plans, s.Pooled.Rate(), lo, hi,
			s.Pooled.SamplesPerPlan(), s.Pooled.MeanErrorPct(), lowest, name)
		if s.Pooled.Plans != s.Seeds*len(s.Workloads) {
			t.Errorf("%s: %d plans, want %d seeds for each of %d workloads", s.Suite, s.Pooled.Plans, s.Seeds, len(s.Workloads))
		}
		if s.Truth != profileTime {
			continue
		}
		for i, c := range s.Cells {
			if _, hi := c.Wilson(wilsonZ); hi < res.Confidence {
				t.Errorf("%s/%s: %d/%d covered, Wilson upper limit %.3f below %.2f",
					s.Suite, s.Workloads[i], c.Covered, c.Plans, hi, res.Confidence)
			}
		}
		if m := s.Pooled.MeanErrorPct(); m > res.Epsilon*100 {
			t.Errorf("%s: mean error %.3f%% exceeds the %.0f%% bound", s.Suite, m, res.Epsilon*100)
		}
	}
	if out := res.Render(); !strings.Contains(out, "wilson 95%") || strings.Count(out, "\n") != len(res.Suites)+4 {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

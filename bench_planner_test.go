// Planner benchmarks: the cost of building a sampling plan, as opposed to
// the cost of simulating it (internal/pipeline's BenchmarkFullSim*). The
// paper's premise is that planning must stay lightweight relative to
// simulation even at HuggingFace trace scale (10^5-10^6 invocations), so
// these benches exercise ROOT clustering, the streaming planner, and the
// Photon/PKA baseline planners over suite-shaped profiles.
package stemroot_test

import (
	"testing"

	"stemroot"
	"stemroot/internal/core"
	"stemroot/internal/hwmodel"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// suiteProfile concatenates every workload of a suite into one
// (names, times) planning profile, timed on the RTX2080 model exactly as
// the experiment runners profile workloads.
func suiteProfile(b *testing.B, suite string, scale float64) ([]string, []float64) {
	b.Helper()
	ws, err := workloads.Suite(suite, 1, scale)
	if err != nil {
		b.Fatal(err)
	}
	var names []string
	var times []float64
	for _, w := range ws {
		prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
		for i := range w.Invs {
			names = append(names, w.Invs[i].Name)
		}
		times = append(times, prof.TimeUS...)
	}
	return names, times
}

// BenchmarkBuildClusters measures ROOT's hierarchical clustering — the
// planner's hot loop — on profiles shaped like the three evaluation suites.
// The hf case is the headline: ~355k invocations, the HuggingFace-scale
// regime where planning cost used to rival sampled simulation.
func BenchmarkBuildClusters(b *testing.B) {
	for _, cse := range []struct {
		name  string
		suite string
		scale float64
	}{
		{"rodinia", workloads.SuiteRodinia, 1},
		{"casio", workloads.SuiteCASIO, 0.2},
		{"hf", workloads.SuiteHuggingFace, 0.2},
	} {
		b.Run(cse.name, func(b *testing.B) {
			names, times := suiteProfile(b, cse.suite, cse.scale)
			p := core.DefaultParams()
			p.Workers = 1 // serial: measure per-thread planner efficiency
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				leaves := core.BuildClusters(names, times, p)
				if len(leaves) == 0 {
					b.Fatal("no clusters")
				}
			}
		})
	}
}

// memScanner streams in-memory profile rows to SampleStream.
type memScanner struct {
	names []string
	times []float64
}

func (s memScanner) Scan(yield func(string, float64) bool) error {
	for i, n := range s.names {
		if !yield(n, s.times[i]) {
			break
		}
	}
	return nil
}

// BenchmarkStreamingPlan measures the out-of-core planner, SampleStream,
// on the HuggingFace-scale profile.
func BenchmarkStreamingPlan(b *testing.B) {
	names, times := suiteProfile(b, workloads.SuiteHuggingFace, 0.2)
	src := memScanner{names, times}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := stemroot.SampleStream(src, stemroot.Options{}, stemroot.StreamOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// benchWorkload returns one mid-sized CASIO workload and its profile for
// the baseline-planner benches.
func benchWorkload(b *testing.B) (*trace.Workload, *trace.Profile) {
	b.Helper()
	ws := workloads.CASIO(1, 0.2)
	for _, w := range ws {
		if w.Name == "bert_train" {
			return w, hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
		}
	}
	b.Fatal("bert_train not found")
	return nil, nil
}

// BenchmarkPlanPhoton measures Photon's online representative comparison,
// the O(N*R*d) loop that is its scalability wall (paper section 5.6).
func BenchmarkPlanPhoton(b *testing.B) {
	w, prof := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := (&sampling.Photon{}).Plan(w, prof)
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkPlanPKA measures PKA's k-sweep of the generic N-D k-means over
// 12 instruction-level metrics.
func BenchmarkPlanPKA(b *testing.B) {
	w, prof := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := sampling.NewPKA(1).Plan(w, prof)
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

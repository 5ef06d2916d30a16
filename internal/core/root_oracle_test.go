package core

import (
	"testing"

	"stemroot/internal/rng"
)

// oracleProfile synthesizes a multi-kernel trace with mixed modality: some
// kernels bimodal, some log-normal, some constant, some tiny.
func oracleProfile(n int, seed uint64) ([]string, []float64) {
	r := rng.New(seed)
	kernels := []string{"gemm", "relu", "pool", "softmax", "ln", "attn", "tiny"}
	names := make([]string, n)
	times := make([]float64, n)
	for i := range names {
		k := kernels[r.Intn(len(kernels))]
		names[i] = k
		switch k {
		case "gemm", "attn": // bimodal
			base := 10.0
			if r.Intn(2) == 0 {
				base = 120
			}
			times[i] = base * (1 + 0.03*r.NormFloat64())
		case "relu", "pool": // log-normal
			times[i] = r.LogNormal(1.5, 0.6)
		case "ln": // constant
			times[i] = 7
		default:
			times[i] = 1 + 0.1*r.NormFloat64()
		}
	}
	return names, times
}

// TestBuildClustersMatchesReference pins the arena'd in-place recursion
// leaf-for-leaf against the original allocating implementation: same leaf
// count, same names, same member indices in the same order, same statistics
// (struct equality, hence bitwise on the float fields).
func TestBuildClustersMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 17, 91} {
		names, times := oracleProfile(6000, seed)
		p := defaultP()
		p.Seed = seed

		want := refBuildClusters(names, times, p)
		wantByName := make(map[string][]Cluster)
		for _, c := range want {
			wantByName[c.Name] = append(wantByName[c.Name], c)
		}

		got := BuildClusters(names, times, p)
		gotByName := make(map[string][]Cluster)
		for _, c := range got {
			gotByName[c.Name] = append(gotByName[c.Name], c)
		}

		if len(got) != len(want) {
			t.Fatalf("seed %d: %d leaves, reference %d", seed, len(got), len(want))
		}
		for name, wl := range wantByName {
			gl := gotByName[name]
			if len(gl) != len(wl) {
				t.Fatalf("seed %d, kernel %q: %d leaves, reference %d", seed, name, len(gl), len(wl))
			}
			for i := range wl {
				if gl[i].Stats != wl[i].Stats {
					t.Fatalf("seed %d, kernel %q leaf %d: stats %+v, reference %+v",
						seed, name, i, gl[i].Stats, wl[i].Stats)
				}
				if len(gl[i].Indices) != len(wl[i].Indices) {
					t.Fatalf("seed %d, kernel %q leaf %d: %d members, reference %d",
						seed, name, i, len(gl[i].Indices), len(wl[i].Indices))
				}
				for j := range wl[i].Indices {
					if gl[i].Indices[j] != wl[i].Indices[j] {
						t.Fatalf("seed %d, kernel %q leaf %d member %d: %d, reference %d",
							seed, name, i, j, gl[i].Indices[j], wl[i].Indices[j])
					}
				}
			}
		}
	}
}

// TestBuildClustersAllocs pins the planner's allocation contract: the arena'd
// recursion allocates a small, depth-independent number of objects per call —
// the shared index backing array, the grouping maps, and the flattened output,
// but nothing per recursion level. The old implementation allocated tens of
// thousands of objects on this profile.
func TestBuildClustersAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's own allocations break the pin")
	}
	names, times := oracleProfile(50000, 42)
	p := defaultP()
	p.Workers = 1

	BuildClusters(names, times, p) // warm the arena pool and KKT scratch
	avg := testing.AllocsPerRun(5, func() {
		BuildClusters(names, times, p)
	})
	// ~20 fixed allocations (maps, order slice, backing array, result) plus a
	// handful from parallel.MapStealing; anything near the old per-level
	// behavior (~1 alloc per 10 invocations) trips this immediately.
	if avg > 100 {
		t.Fatalf("BuildClusters allocates %.0f objects per run, want <= 100", avg)
	}
}

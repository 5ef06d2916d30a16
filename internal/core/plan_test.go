package core

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// smallProfile is rows invocations over the given number of kernel names,
// round robin, with times that differ within a name.
func smallProfile(rows, names int) ([]string, []float64) {
	ns, ts := make([]string, rows), make([]float64, rows)
	for i := range ns {
		ns[i] = fmt.Sprintf("kernel%d", i%names)
		ts[i] = 10*float64(1+i%names) + float64(i)/8
	}
	return ns, ts
}

// TestBuildPlanSmallProfileAllocs pins what planning a DSE cell's profile
// allocates: the plan it returns — the Plan, its clusters, one index array,
// one sample array — and nothing that dies with the call. Before the arena
// held the call's scratch this was 29 objects and 1.9 KB for eight rows.
func TestBuildPlanSmallProfileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's own allocations break the pin")
	}
	p := defaultP()
	for _, rows := range []int{8, 16} {
		for names := 1; names <= 4; names++ {
			ns, ts := smallProfile(rows, names)
			var plan *Plan
			run := func() {
				var err error
				if plan, err = BuildPlan(ns, ts, p); err != nil {
					t.Fatal(err)
				}
			}
			run() // grow an idle arena to this shape
			if allocs := testing.AllocsPerRun(20, run); allocs > 4 {
				t.Errorf("%d rows, %d names: %.0f allocations per plan, want the plan's own four", rows, names, allocs)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			samples := 0
			for _, c := range plan.Clusters {
				samples += len(c.Samples)
			}
			// Rounded up to the allocator's size classes: at most an eighth
			// over, and at least 16 bytes a block.
			want := unsafe.Sizeof(*plan) + uintptr(len(plan.Clusters))*unsafe.Sizeof(PlanCluster{}) + uintptr(rows+samples)*8
			if got := uintptr(after.TotalAlloc - before.TotalAlloc); got > want+want/8+64 {
				t.Errorf("%d rows, %d names: %d bytes per plan of %d clusters, want its own %d and size-class slack", rows, names, got, len(plan.Clusters), want)
			}
		}
	}
}

// statsOf is a plan cluster's profile statistics as the planner sized them.
func statsOf(c *PlanCluster) ClusterStats {
	return ClusterStats{N: c.Population, Mean: c.Mean, StdDev: c.StdDev}
}

// TestPlanSlicesDoNotAlias pins the capped windows: every cluster's Members
// and Samples share one array each, and appending to one cluster's slice
// must reallocate it instead of writing into its neighbour's.
func TestPlanSlicesDoNotAlias(t *testing.T) {
	names, times := bimodalTimes(2000, 11)
	for i := range names {
		if i%3 == 0 {
			names[i] = "other"
		}
	}
	plan, err := BuildPlan(names, times, defaultP())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) < 3 {
		t.Fatalf("%d clusters: the profile no longer splits", len(plan.Clusters))
	}
	snapshot := func() (out [][]int) {
		for _, c := range plan.Clusters {
			out = append(out, append([]int(nil), c.Members...), append([]int(nil), c.Samples...))
		}
		return out
	}
	want := snapshot()
	for i := range plan.Clusters {
		c := &plan.Clusters[i]
		if cap(c.Members) != len(c.Members) || cap(c.Samples) != len(c.Samples) {
			t.Fatalf("cluster %d: Members len %d cap %d, Samples len %d cap %d; want capped windows",
				i, len(c.Members), cap(c.Members), len(c.Samples), cap(c.Samples))
		}
		_ = append(c.Members, -1)
		_ = append(c.Samples, -1)
	}
	for i, got := range snapshot() {
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("an append wrote into cluster %d's %s", i/2, [2]string{"Members", "Samples"}[i%2])
			}
		}
	}
	leaves := BuildClusters(names, times, defaultP())
	for i, l := range leaves {
		if cap(l.Indices) != len(l.Indices) {
			t.Fatalf("leaf %d: Indices len %d cap %d", i, len(l.Indices), cap(l.Indices))
		}
	}
}

// TestArenaKeepsWhatASmallCallNeeds pins the bound on retained scratch: after
// a 30 000-row call (plan_batch's size) the arena on the idle list holds no
// per-row or per-leaf buffer past arenaKeep elements and refers to nothing
// of the call.
func TestArenaKeepsWhatASmallCallNeeds(t *testing.T) {
	names, times := oracleProfile(30000, 5)
	p := defaultP()
	p.Workers = 1
	if _, err := BuildPlan(names, times, p); err != nil {
		t.Fatal(err)
	}
	a := takeArena()
	defer putArena(a)
	for name, c := range map[string]int{
		"ids": cap(a.ids), "vals": cap(a.vals), "leaves": cap(a.leaves), "flat": cap(a.flat),
		"stats": cap(a.stats), "sizes": cap(a.sizes), "order": cap(a.order), "spans": cap(a.spans),
	} {
		if c > arenaKeep {
			t.Errorf("idle arena retains %d elements of %s, bound %d", c, name, arenaKeep)
		}
	}
	if a.backing != nil || len(a.idOf) != 0 || len(a.team) != 0 {
		t.Errorf("idle arena still refers to its last call: backing %d, names %d, team %d", len(a.backing), len(a.idOf), len(a.team))
	}
	for _, l := range a.leaves[:cap(a.leaves)] {
		if l.Name != "" || l.Indices != nil {
			t.Fatal("idle arena's leaf list still points into its last call")
		}
	}
}

package sampling

import (
	"errors"
	"slices"

	"stemroot/internal/core"
	"stemroot/internal/rng"
	"stemroot/internal/stats"
	"stemroot/internal/trace"
)

// Sieve implements stratified GPU-compute workload sampling
// (Naderan-Tahan et al., ISPASS'23) as characterized in the paper's
// Table 1: kernels are grouped by name, stratified by the coefficient of
// variation of their per-warp dynamic instruction counts, and a single
// first-chronological kernel (with the dominant CTA configuration) is
// sampled per stratum. Weights follow Sieve's instruction-count weighting:
// a sample standing for a stratum is scaled by the ratio of the stratum's
// total instruction count to the sample's.
type Sieve struct {
	Seed uint64
	// TunedWorkloads selects random (rather than first-chronological)
	// representatives, the paper's per-workload hand-tuning.
	TunedWorkloads map[string]bool
}

// Sieve's stratification thresholds on instruction-count CoV: at or below
// sieveLowCoV a kernel is one stable stratum, up to sieveHighCoV it splits
// into a few quantile strata, and above that into per-count strata.
const (
	sieveLowCoV  = 0.02
	sieveHighCoV = 0.25
)

// NewSieve returns Sieve with the given seed and no tuned workloads.
func NewSieve(seed uint64) *Sieve {
	return &Sieve{Seed: seed}
}

// Name implements Method.
func (s *Sieve) Name() string { return "sieve" }

// Plan implements Method.
func (s *Sieve) Plan(w *trace.Workload, _ *trace.Profile) (*Plan, error) {
	if w.Len() == 0 {
		return nil, errors.New("sampling: empty workload")
	}
	random := s.TunedWorkloads[w.Name]
	gen := rng.New(rng.Derive(s.Seed, w.Seed, rng.HashString("sieve")))

	plan := &Plan{Method: s.Name()}
	// Iterate name groups in first-appearance order, not map order: gen is
	// consumed along the way, so the iteration order must be deterministic
	// for plans to be reproducible run to run.
	groups := w.GroupByName()
	for _, name := range w.KernelNames() {
		idxs := groups[name]
		counts := make([]float64, len(idxs))
		for j, ix := range idxs {
			counts[j] = float64(w.Invs[ix].InstrsPerWarp)
		}
		cov := stats.CoV(counts)

		var strata [][]int
		switch {
		case cov <= sieveLowCoV:
			strata = [][]int{idxs}
		case cov <= sieveHighCoV:
			strata = stratifyByQuantiles(idxs, counts, 3)
		default:
			// Highly irregular kernels (bfs frontiers, gaussian's decay):
			// one stratum per distinct instruction count, as the original
			// Sieve does — accurate, but the source of its low speedup on
			// irregular GPGPU workloads.
			strata = stratifyByDistinct(idxs, counts)
		}

		for _, stratum := range strata {
			if len(stratum) == 0 {
				continue
			}
			rep := pickDominantCTA(w, stratum, random, gen)
			// Instruction-count weighting: total stratum instructions over
			// the representative's.
			var total float64
			for _, ix := range stratum {
				total += float64(w.Invs[ix].InstrsPerWarp)
			}
			repInstrs := float64(w.Invs[rep].InstrsPerWarp)
			weight := float64(len(stratum))
			if repInstrs > 0 {
				weight = total / repInstrs
			}
			plan.Clusters = append(plan.Clusters, core.PlanCluster{Samples: []int{rep}, Weight: weight})
		}
	}
	return plan, nil
}

// stratifyByQuantiles splits a kernel group into k strata by instruction
// count.
func stratifyByQuantiles(idxs []int, counts []float64, k int) [][]int {
	lo, hi := slices.Min(counts), slices.Max(counts)
	if hi == lo || k < 2 {
		return [][]int{idxs}
	}
	strata := make([][]int, k)
	for j, ix := range idxs {
		b := int(float64(k) * (counts[j] - lo) / (hi - lo))
		if b >= k {
			b = k - 1
		}
		strata[b] = append(strata[b], ix)
	}
	return strata
}

// stratifyByDistinct groups invocations whose instruction counts agree to
// two significant digits, capping the stratum count by coarsening the
// rounding until at most 64 strata remain.
func stratifyByDistinct(idxs []int, counts []float64) [][]int {
	for digits := 2; digits >= 0; digits-- {
		buckets := make(map[float64][]int)
		var order []float64
		for j, ix := range idxs {
			key := roundSig(counts[j], digits)
			if _, ok := buckets[key]; !ok {
				order = append(order, key)
			}
			buckets[key] = append(buckets[key], ix)
		}
		if len(order) <= 64 || digits == 0 {
			out := make([][]int, 0, len(order))
			for _, k := range order {
				out = append(out, buckets[k])
			}
			return out
		}
	}
	return [][]int{idxs}
}

// roundSig rounds x to the given number of significant digits past the
// leading one.
func roundSig(x float64, digits int) float64 {
	if x == 0 {
		return 0
	}
	neg := x < 0
	if neg {
		x = -x
	}
	scale := 1.0
	for x >= 10 {
		x /= 10
		scale *= 10
	}
	for x < 1 {
		x *= 10
		scale /= 10
	}
	mult := 1.0
	for i := 0; i < digits; i++ {
		mult *= 10
	}
	x = float64(int64(x*mult+0.5)) / mult
	if neg {
		return -x * scale
	}
	return x * scale
}

// pickDominantCTA returns the first-chronological member whose CTA (block)
// configuration is the most common in the stratum, or a random member for
// tuned workloads. On a tie between configurations the earliest member
// holding any of the tied ones wins.
func pickDominantCTA(w *trace.Workload, stratum []int, random bool, gen *rng.Rand) int {
	if random {
		return stratum[gen.Intn(len(stratum))]
	}
	counts := make(map[trace.Dim3]int)
	best := 0
	for _, ix := range stratum {
		c := counts[w.Invs[ix].Block] + 1
		counts[w.Invs[ix].Block] = c
		best = max(best, c)
	}
	for _, ix := range stratum {
		if counts[w.Invs[ix].Block] == best {
			return ix
		}
	}
	return stratum[0]
}

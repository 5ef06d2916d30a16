package core

import (
	"math"

	"stemroot/internal/stats"
)

// smallSampleThreshold is the CLT rule-of-thumb boundary the paper cites
// (§3.2, "rule of thumb is m >= 30"). Below it the normal approximation of
// the sample mean is optimistic and a Student-t quantile is the rigorous
// choice.
const smallSampleThreshold = 30

// applyTCorrection inflates small sample sizes, in place, with Student-t
// quantiles: a cluster sized m < 30 by the z-based model is resized with
// the fixed point of m = ceil((t_{1-α/2, m-1}/ε · σ/μ)², clamped to
// [previous m, N]. Large clusters are untouched (t → z as m grows). This is
// an extension beyond the paper, closing its own rule-of-thumb caveat.
func applyTCorrection(clusters []ClusterStats, sizes []int, p Params) {
	for i, c := range clusters {
		m := sizes[i]
		if m < 2 || m >= smallSampleThreshold || c.Mean <= 0 || c.StdDev == 0 {
			continue
		}
		// The z-based m was derived from some effective per-cluster error
		// budget e_i = z·(σ/μ)/sqrt(m). Keep that budget but re-solve with
		// the t quantile, iterating because t depends on m.
		z := p.Z()
		budget := z * c.CoV() / math.Sqrt(float64(m))
		for iter := 0; iter < 8; iter++ {
			tq, err := stats.TScore(p.Confidence, m)
			if err != nil {
				break
			}
			next := int(math.Ceil(math.Pow(tq*c.CoV()/budget, 2)))
			if next <= m {
				break
			}
			m = next
			if m >= smallSampleThreshold {
				break
			}
		}
		if m > c.N {
			m = c.N
		}
		if m > sizes[i] {
			sizes[i] = m
		}
	}
}

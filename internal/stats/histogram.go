package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Histogram is a fixed-width binned view of a sample, the representation
// behind the paper's Figure 1 execution-time histograms.
type Histogram struct {
	Lo, Hi float64 // data range covered
	Width  float64 // bin width
	Counts []int   // one count per bin
	Total  int
}

// NewHistogram bins xs into the given number of equal-width bins. For empty
// input or a degenerate range it returns a single-bin histogram.
func NewHistogram(xs []float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	h := &Histogram{Counts: make([]int, bins), Total: len(xs)}
	if len(xs) == 0 {
		h.Width = 1
		return h
	}
	lo, hi := slices.Min(xs), slices.Max(xs)
	h.Lo, h.Hi = lo, hi
	if hi == lo {
		h.Width = 1
		h.Counts[0] = len(xs)
		return h
	}
	h.Width = (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / h.Width)
		if i >= bins {
			i = bins - 1
		}
		if i < 0 {
			i = 0
		}
		h.Counts[i]++
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.Width
}

// Render draws a textual histogram (one row per bin) for CLI output; width
// is the maximum bar length in characters.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%12.3f |%-*s| %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}

// KDE evaluates a Gaussian kernel density estimate of xs at each point in
// eval, using the supplied bandwidth (Silverman's rule if bw <= 0). Sieve's
// optional KDE-based clustering (§5.1) and peak-structure analysis use it.
func KDE(xs []float64, eval []float64, bw float64) []float64 {
	out := make([]float64, len(eval))
	if len(xs) == 0 {
		return out
	}
	if bw <= 0 {
		bw = SilvermanBandwidth(xs)
	}
	if bw <= 0 {
		bw = 1e-12
	}
	norm := 1 / (float64(len(xs)) * bw * math.Sqrt(2*math.Pi))
	for i, e := range eval {
		var s float64
		for _, x := range xs {
			z := (e - x) / bw
			s += math.Exp(-0.5 * z * z)
		}
		out[i] = s * norm
	}
	return out
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 0.9 * min(sigma, IQR/1.34) * n^{-1/5}.
func SilvermanBandwidth(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	sigma := StdDev(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	iqr := quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)
	spread := sigma
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 {
		return 0
	}
	return 0.9 * spread * math.Pow(float64(n), -0.2)
}

// CountModes estimates the number of modes of xs by evaluating a KDE on a
// uniform grid and counting local maxima above minFrac of the global max.
func CountModes(xs []float64, gridSize int, minFrac float64) int {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := slices.Min(xs), slices.Max(xs)
	if hi == lo {
		return 1
	}
	if gridSize < 3 {
		gridSize = 64
	}
	grid := make([]float64, gridSize)
	step := (hi - lo) / float64(gridSize-1)
	for i := range grid {
		grid[i] = lo + float64(i)*step
	}
	// Silverman's rule over-smooths multimodal data (it is derived for a
	// normal reference density), merging nearby execution-time peaks. A
	// third of it resolves close peaks; the valley-prominence filter below
	// rejects the extra wiggle this introduces.
	dens := KDE(xs, grid, SilvermanBandwidth(xs)/3)
	maxD := 0.0
	for _, d := range dens {
		if d > maxD {
			maxD = d
		}
	}
	var maxima []int
	for i := 1; i < gridSize-1; i++ {
		if dens[i] >= dens[i-1] && dens[i] > dens[i+1] && dens[i] >= minFrac*maxD {
			maxima = append(maxima, i)
		}
	}
	// Merge maxima that are not separated by a genuine valley: two adjacent
	// local maxima count as distinct modes only if the density dips below
	// half the smaller of the two between them. This filters KDE wiggle.
	modes := 0
	prev := -1
	for _, m := range maxima {
		if prev < 0 {
			modes++
			prev = m
			continue
		}
		valley := dens[prev]
		for i := prev; i <= m; i++ {
			if dens[i] < valley {
				valley = dens[i]
			}
		}
		smaller := dens[m]
		if dens[prev] < smaller {
			smaller = dens[prev]
		}
		if valley < 0.5*smaller {
			modes++
			prev = m
		} else if dens[m] > dens[prev] {
			prev = m
		}
	}
	if modes == 0 {
		modes = 1
	}
	return modes
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
	"stemroot/internal/metrics"
	"stemroot/internal/parallel"
	"stemroot/internal/pipeline"
)

// EpochSweepEpochs is the epoch-length grid the sweep evaluates, bracketing
// gpu.DefaultEpoch by two octaves on each side.
var EpochSweepEpochs = []float64{16, 32, 64, 128, 256, 512}

// EpochSweepPoint is one epoch length's accuracy/cost summary across the
// sweep workloads: the STEM-style relative error of the par engine's
// full-simulation cycle totals against the exact engine's, and the measured
// wall-clock speedup of the par pass over the exact pass.
type EpochSweepPoint struct {
	Epoch   float64
	Default bool // Epoch == gpu.DefaultEpoch
	// MeanErrorPct and MaxErrorPct aggregate |par-exact|/exact*100 over the
	// per-workload cycle totals; MaxWorkload names the worst one.
	MeanErrorPct float64
	MaxErrorPct  float64
	MaxWorkload  string
	// Speedup is exact-pass wall time over par-pass wall time for the same
	// workload set. Error columns are deterministic; this one is a timing
	// measurement and varies run to run (and is ~1x on single-core hosts,
	// where the intra-kernel workers clamp to one).
	Speedup float64
	// Replayed and Misses count the shared-L2 accesses replayed at this
	// epoch length's barrier merges and how many of them missed, summed
	// over all workloads. Deterministic for every Sim.Workers and worker
	// count (they are properties of the simulated access streams, not the
	// schedule). They drift only slightly across rows: epoch length shifts
	// corrected timings, which shifts which accesses each shard issues.
	// A cache pre-warmed by an earlier run suppresses them (cached segments
	// never reach the engine), same as Speedup.
	Replayed int64
	Misses   int64
	// MergeSharePct is the merge phase's share of par-engine kernel time
	// (see metrics.BarrierStats.MergeSharePct) — a wall-clock measurement,
	// rendered with the timing half, not the deterministic table.
	MergeSharePct float64
}

// EpochSweepResult holds the sweep: how much accuracy the relaxed-sync
// intra-kernel engine gives up at each epoch length, and what it buys.
type EpochSweepResult struct {
	Workloads int
	ExactSec  float64
	Points    []EpochSweepPoint
}

// DefaultPoint returns the sweep point at gpu.DefaultEpoch — the accuracy
// contract the default par configuration ships with (TestEpochSweep holds
// its MaxErrorPct under 2 %).
func (r *EpochSweepResult) DefaultPoint() EpochSweepPoint {
	for _, p := range r.Points {
		if p.Default {
			return p
		}
	}
	return EpochSweepPoint{}
}

// EpochSweep quantifies the par engine's accuracy/epoch trade-off the same
// way the paper scores sampling methods: simulate the reduced DSE workloads
// (11 Rodinia + 6 HuggingFace) in full under both engines and compare total
// cycles per workload. The exact pass runs once and serves as ground truth
// for every epoch length.
//
// Workloads fan out over cfg.Sim.Workers workers (work stealing — costs are
// skewed); each workload's simulation stays serial so the intra-kernel
// engine is the only variable. Per-workload totals are folded in workload
// order, so every error column is bit-identical for every Sim.Workers value
// — only the Speedup column is a wall-clock measurement. cfg.Sim.Engine and
// cfg.Sim.Epoch are ignored: the sweep sets the engine itself. The shared
// segment cache applies; exact and par passes never share entries
// (gpu.KeyForSegmentEngineAppend), so caching cannot mix the two engines'
// results — but a cache pre-warmed by an earlier run does make the Speedup
// column meaningless.
func EpochSweep(cfg Config) (*EpochSweepResult, error) {
	lim := kernelgen.DSELimits()
	ws := dseWorkloads(cfg)
	nw := parallel.Workers(cfg.Sim.Workers)

	totals := func(opt pipeline.Options) ([]float64, float64, error) {
		start := time.Now()
		sums, err := parallel.MapStealing(len(ws), nw, func(wi int) (float64, error) {
			full, err := pipeline.FullSimOpt(ws[wi], gpu.Baseline(), lim, opt)
			if err != nil {
				return 0, fmt.Errorf("epochsweep %s: %w", ws[wi].Name, err)
			}
			var sum float64
			for _, c := range full {
				sum += c
			}
			return sum, nil
		})
		return sums, time.Since(start).Seconds(), err
	}

	exact, exactSec, err := totals(pipeline.Options{Workers: 1, Cache: cfg.Sim.Cache})
	if err != nil {
		return nil, err
	}

	res := &EpochSweepResult{Workloads: len(ws), ExactSec: exactSec}
	for _, epoch := range EpochSweepEpochs {
		var barrier metrics.BarrierCollector
		par, parSec, err := totals(pipeline.Options{
			Workers: 1, Cache: cfg.Sim.Cache,
			Engine: gpu.EngineModePar, KernelWorkers: cfg.Sim.KernelWorkers,
			Epoch: epoch, BarrierStats: &barrier,
		})
		if err != nil {
			return nil, err
		}
		snap := barrier.Snapshot()
		if cfg.Sim.BarrierStats != nil {
			cfg.Sim.BarrierStats.Add(snap) // session-wide -barrierstats report
		}
		pt := EpochSweepPoint{
			Epoch: epoch, Default: epoch == gpu.DefaultEpoch,
			Replayed: snap.Replayed, Misses: snap.Misses,
			MergeSharePct: snap.MergeSharePct(),
		}
		for wi := range ws {
			e := 0.0
			if exact[wi] > 0 {
				e = (par[wi] - exact[wi]) / exact[wi] * 100
			}
			if e < 0 {
				e = -e
			}
			pt.MeanErrorPct += e
			if e > pt.MaxErrorPct || pt.MaxWorkload == "" {
				pt.MaxErrorPct, pt.MaxWorkload = e, ws[wi].Name
			}
		}
		pt.MeanErrorPct /= float64(len(ws))
		if parSec > 0 {
			pt.Speedup = exactSec / parSec
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render prints the error/epoch table. Every cell is deterministic — the
// repo's byte-identical-stdout contract holds for epochsweep at any
// Sim.Workers/Sim.KernelWorkers — so the wall-clock speedups live in
// RenderTiming (stderr material, like cache stats). The default-epoch row
// is starred; its max-error cell is the number TestEpochSweep bounds.
func (r *EpochSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Epoch sweep: par-engine error vs exact engine (%d workloads, full sim totals)\n\n", r.Workloads)
	var rows [][]string
	for _, p := range r.Points {
		mark := ""
		if p.Default {
			mark = " *default"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%s", p.Epoch, mark),
			fmt.Sprintf("%.3f", p.MeanErrorPct),
			fmt.Sprintf("%.3f", p.MaxErrorPct),
			p.MaxWorkload,
			fmt.Sprintf("%d", p.Replayed),
			fmt.Sprintf("%d", p.Misses),
		})
	}
	writeTable(&b, []string{"epoch", "mean err(%)", "max err(%)", "worst workload", "replayed", "misses"}, rows)
	d := r.DefaultPoint()
	fmt.Fprintf(&b, "\ndefault epoch %.0f: max error %.3f%% mean %.3f%% across %d workloads replayed %d misses %d\n",
		d.Epoch, d.MaxErrorPct, d.MeanErrorPct, r.Workloads, d.Replayed, d.Misses)
	return b.String()
}

// RenderTiming prints the wall-clock half of the sweep — the exact pass's
// seconds and each epoch's par-over-exact speedup. Nondeterministic by
// nature (and ~1x wherever the shard pool clamps to one core), so callers
// keep it off stdout.
func (r *EpochSweepResult) RenderTiming() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epochsweep wall clock: exact %.1fs; par speedup", r.ExactSec)
	for _, p := range r.Points {
		fmt.Fprintf(&b, " %.0f=%.2fx", p.Epoch, p.Speedup)
	}
	b.WriteString("\nepochsweep merge share: barrier merge % of par kernel time")
	for _, p := range r.Points {
		fmt.Fprintf(&b, " %.0f=%.1f%%", p.Epoch, p.MergeSharePct)
	}
	b.WriteString("\n")
	return b.String()
}

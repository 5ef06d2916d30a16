// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run table3            # any of the ids below
//	experiments -run all -scale paper  # full evaluation at paper scale
//	experiments -run fig11 -cachedir /tmp/segcache  # reuse segments across runs
//
// Simulator-bound experiments share a content-addressed segment-result
// cache (internal/simcache): identical ground-truth segments are simulated
// once per process, with -cachedir once per machine, and with -cacheaddr —
// pointing at a running cmd/cacheserver — once per fleet: every run sharing
// the server fetches overlapping segments in one batched round trip instead
// of re-simulating them. Output is bit-identical with and without any cache
// tier (a dead or corrupt server degrades to local behavior); -nocache
// disables caching entirely, and the per-tier hit/miss/byte counters land on
// stderr unless -cachestats=false. -engine par runs additionally report
// epoch-barrier accounting (compute vs merge time, replayed accesses,
// misses) to stderr unless -barrierstats=false.
//
// Experiment ids: table2, fig1, fig7, fig8, fig9, fig10, fig11, fig12,
// fig13, fig14, table3, table4 (alias: dse), table5, flush, kkt, rootk,
// root, warmup, multigpu, confidence, epochsweep, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"stemroot/internal/cliopts"
	"stemroot/internal/experiments"
	"stemroot/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := mainErr(); err != nil {
		log.Fatal(err)
	}
}

// mainErr is main's body. It returns its error instead of exiting where the
// error happens, so the deferred cleanup — the cachenet drain that delivers
// this run's segments, the stats reports, the profile stop — runs before
// main exits non-zero.
func mainErr() error {
	run := flag.String("run", "table3", "experiment id (or comma list, or 'all')")
	scale := flag.String("scale", "quick", "quick or paper")
	seed := flag.Uint64("seed", 1, "seed")
	reps := flag.Int("reps", 0, "override repetitions (0 = scale default)")
	var sim cliopts.Flags
	sim.Register(flag.CommandLine, false)
	flag.Parse()

	stop, err := sim.StartProfiles()
	if err != nil {
		return err
	}
	defer stop()

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.Quick()
	case "paper":
		cfg = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	cfg.Seed = *seed
	if *reps > 0 {
		cfg.Reps = *reps
	}
	opts, finish, err := sim.Options()
	if err != nil {
		return err
	}
	defer finish()
	cfg.Parallelism = opts.Workers
	cfg.Cache = opts.Cache
	cfg.Engine = opts.Engine
	cfg.KernelWorkers = opts.KernelWorkers
	cfg.Epoch = opts.Epoch
	cfg.BarrierStats = opts.BarrierStats
	return runExperiments(cfg, *run, os.Stdout)
}

// runExperiments dispatches the requested experiment ids to their runners,
// writing rendered tables to out.
func runExperiments(cfg experiments.Config, run string, out io.Writer) error {
	ids := strings.Split(run, ",")
	if run == "all" {
		ids = []string{"table2", "fig1", "table3", "fig7", "fig8", "fig9",
			"fig10", "fig11", "table4", "fig12", "fig13", "fig14", "table5",
			"flush", "kkt", "rootk", "root", "warmup", "multigpu", "confidence"}
	}

	// Table 3 feeds figures 7-9; compute it lazily once.
	var t3 *experiments.Table3Result
	table3 := func() (*experiments.Table3Result, error) {
		if t3 == nil {
			res, err := experiments.Table3(cfg)
			if err != nil {
				return nil, err
			}
			t3 = res
		}
		return t3, nil
	}
	// Table 4 feeds figure 12.
	var t4 *experiments.Table4Result
	table4 := func() (*experiments.Table4Result, error) {
		if t4 == nil {
			res, err := experiments.Table4(cfg)
			if err != nil {
				return nil, err
			}
			t4 = res
		}
		return t4, nil
	}

	for _, id := range ids {
		fmt.Fprintf(out, "==== %s ====\n", id)
		var rendered string
		var err error
		switch strings.TrimSpace(id) {
		case "fig1":
			var entries []experiments.Figure1Entry
			if entries, err = experiments.Figure1(cfg); err == nil {
				rendered = experiments.RenderFigure1(entries)
			}
		case "table3":
			var res *experiments.Table3Result
			if res, err = table3(); err == nil {
				rendered = res.Render()
			}
		case "fig7", "fig8", "fig9":
			var res *experiments.Table3Result
			if res, err = table3(); err == nil {
				switch strings.TrimSpace(id) {
				case "fig7":
					rendered = experiments.RenderFigure7(append(
						res.PerWorkload[workloads.SuiteRodinia],
						res.PerWorkload[workloads.SuiteCASIO]...))
				case "fig8":
					rendered = experiments.RenderFigure8(append(
						res.PerWorkload[workloads.SuiteRodinia],
						res.PerWorkload[workloads.SuiteCASIO]...))
				case "fig9":
					rendered = experiments.RenderFigure9(append(
						res.PerWorkload[workloads.SuiteCASIO],
						res.PerWorkload[workloads.SuiteHuggingFace]...))
				}
			}
		case "fig10":
			var cs []experiments.Figure10Cluster
			if cs, err = experiments.Figure10(cfg); err == nil {
				rendered = experiments.RenderFigure10(cs)
			}
		case "fig11":
			var pts []experiments.Figure11Point
			if pts, err = experiments.Figure11(cfg); err == nil {
				rendered = experiments.RenderFigure11(pts)
			}
		case "table4", "dse":
			var res *experiments.Table4Result
			if res, err = table4(); err == nil {
				rendered = res.Render()
			}
		case "fig12":
			var res *experiments.Table4Result
			if res, err = table4(); err == nil {
				rendered = experiments.RenderFigure12(res.Figure12)
			}
		case "fig13":
			var res *experiments.Figure13Result
			if res, err = experiments.Figure13(cfg); err == nil {
				rendered = res.Render()
			}
		case "fig14":
			var res *experiments.Figure14Result
			if res, err = experiments.Figure14(cfg); err == nil {
				rendered = res.Render()
			}
		case "table5":
			var res *experiments.Table5Result
			if res, err = experiments.Table5(cfg); err == nil {
				rendered = res.Render()
			}
		case "flush":
			var res *experiments.FlushResult
			if res, err = experiments.FlushAblation(cfg); err == nil {
				rendered = res.Render()
			}
		case "kkt":
			var res *experiments.KKTAblationResult
			if res, err = experiments.KKTAblation(cfg); err == nil {
				rendered = res.Render()
			}
		case "rootk":
			var pts []experiments.RootKPoint
			if pts, err = experiments.RootKAblation(cfg); err == nil {
				rendered = experiments.RenderRootK(pts)
			}
		case "root":
			var res *experiments.RootAblationResult
			if res, err = experiments.RootAblation(cfg); err == nil {
				rendered = res.Render()
			}
		case "warmup":
			var pts []experiments.WarmupPoint
			if pts, err = experiments.WarmupAblation(cfg); err == nil {
				rendered = experiments.RenderWarmup(pts)
			}
		case "multigpu":
			var pts []experiments.MultiGPUPoint
			if pts, err = experiments.MultiGPU(cfg); err == nil {
				rendered = experiments.RenderMultiGPU(pts)
			}
		case "table2":
			var rows []experiments.Table2Row
			if rows, err = experiments.Table2(cfg); err == nil {
				rendered = experiments.RenderTable2(rows)
			}
		case "confidence":
			var res *experiments.ConfidenceResult
			if res, err = experiments.Confidence(cfg, 100); err == nil {
				rendered = res.Render()
			}
		case "epochsweep":
			var res *experiments.EpochSweepResult
			if res, err = experiments.EpochSweep(cfg); err == nil {
				rendered = res.Render()
				// Wall clock is the one nondeterministic output; stderr
				// keeps stdout byte-identical at any -j/-jkernel.
				fmt.Fprint(os.Stderr, res.RenderTiming())
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprint(out, rendered)
		fmt.Fprintln(out)
	}
	return nil
}

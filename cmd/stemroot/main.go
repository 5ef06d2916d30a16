// Command stemroot builds a STEM+ROOT sampling plan from a kernel-level
// profile CSV (columns: seq,name,time_us — the format benchgen emits and
// any timeline profiler export can be converted to) and prints the plan:
// clusters, sample sizes, predicted error, and the invocations to simulate.
//
// Usage:
//
//	stemroot -profile traces/bert_infer.rtx2080.csv -epsilon 0.05
//	stemroot -profile huge.csv -stream -o plan.json
//	stemroot -profile trace.csv -simulate -cachedir ~/.cache/stemroot
//
// With -simulate, the plan is additionally validated on the cycle-level
// simulator against a workload reconstructed from the profile; -cachedir
// persists segment results so repeat validations skip the full simulation,
// and processes that name one directory share them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"

	"stemroot"
	"stemroot/internal/cliopts"
	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/pipeline"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// cliConfig carries the parsed flags.
type cliConfig struct {
	profilePath string
	epsilon     float64
	confidence  float64
	seed        uint64
	flat        bool
	stream      bool
	snapshot    int
	tdist       bool
	planOut     string
	verbose     bool
	simulate    bool
	simCalls    int
	sim         cliopts.Flags // -j and the engine, cache and profile flags

	stdin io.Reader // -profile - source; os.Stdin outside tests
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stemroot: ")
	if err := mainErr(); err != nil {
		log.Fatal(err)
	}
}

// mainErr is main's body. It returns its error instead of exiting where the
// error happens, so the deferred profile stop runs before main exits
// non-zero.
func mainErr() error {
	var cfg cliConfig
	flag.StringVar(&cfg.profilePath, "profile", "", "profile CSV (seq,name,time_us)")
	flag.Float64Var(&cfg.epsilon, "epsilon", 0.05, "target relative error bound")
	flag.Float64Var(&cfg.confidence, "confidence", 0.95, "confidence level")
	flag.Uint64Var(&cfg.seed, "seed", 1, "sampling seed")
	flag.BoolVar(&cfg.flat, "flat", false, "disable ROOT's hierarchical splitting")
	flag.BoolVar(&cfg.stream, "stream", false, "single-pass streaming service mode (bounded memory; -profile - reads stdin; a malformed row is an error naming its line, and so is a stream cut mid-line unless the rest of its time field still parses as a number, which is then the last row)")
	flag.IntVar(&cfg.snapshot, "snapshot", 0, "with -stream, print a rolling plan snapshot every N invocations (0 = final only)")
	flag.BoolVar(&cfg.tdist, "tdist", false, "Student-t small-sample correction")
	flag.StringVar(&cfg.planOut, "o", "", "write the sampling plan as JSON to this path")
	flag.BoolVar(&cfg.verbose, "v", false, "print every cluster")
	flag.BoolVar(&cfg.simulate, "simulate", false, "validate the plan on the cycle-level simulator (synthetic workload reconstructed from the profile)")
	flag.IntVar(&cfg.simCalls, "simcalls", 256, "cap on simulated invocations in -simulate mode")
	cfg.sim.Register(flag.CommandLine, true)
	flag.Parse()

	stop, err := cfg.sim.StartProfiles()
	if err != nil {
		return err
	}
	defer stop()

	cfg.stdin = os.Stdin
	return run(cfg, os.Stdout)
}

func run(cfg cliConfig, out io.Writer) error {
	if cfg.profilePath == "" {
		return errors.New("missing -profile")
	}
	if cfg.simulate && cfg.simCalls < 1 {
		return fmt.Errorf("-simcalls must be at least 1, got %d", cfg.simCalls)
	}
	switch {
	case cfg.snapshot < 0:
		return fmt.Errorf("-snapshot must be 0 (final plan only) or a positive interval, got %d", cfg.snapshot)
	case cfg.snapshot > 0 && !cfg.stream:
		return errors.New("-snapshot needs -stream")
	}
	opts := stemroot.Options{
		Epsilon:      cfg.epsilon,
		Confidence:   cfg.confidence,
		Seed:         cfg.seed,
		Flat:         cfg.flat,
		SmallSampleT: cfg.tdist,
		Parallelism:  cfg.sim.Jobs,
	}

	if cfg.stream {
		if cfg.simulate {
			return errors.New("-simulate needs the in-memory path; drop -stream")
		}
		return runStream(cfg, opts, out)
	}

	var (
		plan  *stemroot.Plan
		names []string
		times []float64
	)
	{
		f, err := os.Open(cfg.profilePath)
		if err != nil {
			return err
		}
		names, times, err = trace.ReadProfileCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		plan, err = stemroot.Sample(names, times, opts)
		if err != nil {
			return err
		}
	}

	if err := writePlan(cfg, plan, out); err != nil {
		return err
	}

	var total float64
	for _, t := range times {
		total += t
	}
	distinct := plan.SampledIndices()
	var sampledTime float64
	for _, ix := range distinct {
		sampledTime += times[ix]
	}

	fmt.Fprintf(out, "invocations:      %d\n", len(times))
	fmt.Fprintf(out, "clusters:         %d\n", len(plan.Clusters))
	fmt.Fprintf(out, "samples (w/repl): %d\n", plan.TotalSamples())
	fmt.Fprintf(out, "distinct samples: %d\n", len(distinct))
	fmt.Fprintf(out, "predicted error:  %.4f (bound %.2f)\n", plan.PredictedError, plan.Epsilon)
	if sampledTime > 0 {
		fmt.Fprintf(out, "expected speedup: %.1fx\n", total/sampledTime)
	}

	if cfg.simulate {
		if err := simulateProfile(cfg, opts, names, times, out); err != nil {
			return err
		}
	}

	if cfg.verbose {
		printClusters(out, plan)
	}
	return nil
}

// runStream is the single-pass streaming service mode: it ingests the
// profile (file, or stdin with -profile -) through the zero-alloc byte
// decoder into a StreamPlanner, optionally printing a rolling snapshot
// every -snapshot invocations, and ends with the same summary the batch
// path prints. Memory stays O(#kernels × ReservoirCap) however long the
// trace is, and the output is byte-identical across runs at a fixed seed.
func runStream(cfg cliConfig, opts stemroot.Options, out io.Writer) error {
	sp, err := stemroot.NewStreamPlanner(opts, stemroot.StreamOptions{})
	if err != nil {
		return err
	}

	var src io.Reader
	if cfg.profilePath == "-" {
		if cfg.stdin == nil {
			return errors.New("-profile -: no stdin available")
		}
		src = cfg.stdin
	} else {
		f, err := os.Open(cfg.profilePath)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}

	next := cfg.snapshot
	var snapErr error
	if err := trace.NewFastCSVReader(src).ScanBytes(func(name []byte, t float64) bool {
		sp.AddBytes(name, t)
		if cfg.snapshot > 0 && sp.Count() >= next {
			snap, err := sp.Snapshot()
			if err != nil {
				snapErr = err
				return false
			}
			printSnapshot(out, snap)
			next += cfg.snapshot
		}
		return true
	}); err != nil {
		return err
	}
	if snapErr != nil {
		return snapErr
	}

	// Final plan: forced re-derivation, so the result is independent of
	// how many rolling snapshots were taken along the way.
	plan, err := sp.Plan()
	if err != nil {
		return err
	}
	snap, err := sp.Snapshot()
	if err != nil {
		return err
	}

	if err := writePlan(cfg, plan, out); err != nil {
		return err
	}

	fmt.Fprintf(out, "invocations:      %d\n", snap.Invocations)
	fmt.Fprintf(out, "kernels:          %d\n", snap.Kernels)
	fmt.Fprintf(out, "clusters:         %d\n", snap.Clusters)
	fmt.Fprintf(out, "samples (w/repl): %d\n", snap.TotalSamples)
	fmt.Fprintf(out, "distinct samples: %d\n", len(plan.SampledIndices()))
	fmt.Fprintf(out, "predicted error:  %.4f (bound %.2f)\n", plan.PredictedError, plan.Epsilon)
	fmt.Fprintf(out, "total time:       %.6e us\n", snap.TotalTimeUS)
	fmt.Fprintf(out, "extrapolated:     %.6e us (gap %+.3f%%)\n", snap.ExtrapolatedUS, gapPct(snap))
	if snap.DistinctTimeUS > 0 {
		fmt.Fprintf(out, "expected speedup: %.1fx\n", snap.TotalTimeUS/snap.DistinctTimeUS)
	}
	fmt.Fprintf(out, "replans:          %d\n", snap.Replans)

	if cfg.verbose {
		printClusters(out, plan)
	}
	return nil
}

// printSnapshot renders one rolling snapshot line — fully deterministic
// (no timestamps), so repeated runs over the same stream are
// byte-identical.
func printSnapshot(out io.Writer, s stemroot.Snapshot) {
	fmt.Fprintf(out,
		"snapshot @%d: kernels=%d clusters=%d samples=%d predicted_error=%.4f total_us=%.6e extrapolated_us=%.6e gap=%+.3f%% replans=%d\n",
		s.Invocations, s.Kernels, s.Clusters, s.TotalSamples, s.PredictedError,
		s.TotalTimeUS, s.ExtrapolatedUS, gapPct(s), s.Replans)
}

// gapPct is the extrapolated total's signed gap to the profiled total, in
// percent; a stream whose times are all zero has no gap.
func gapPct(s stemroot.Snapshot) float64 {
	if s.TotalTimeUS <= 0 {
		return 0
	}
	return 100 * (s.ExtrapolatedUS - s.TotalTimeUS) / s.TotalTimeUS
}

// simulateProfile validates the sampling approach on the cycle-level
// simulator: it reconstructs a simulatable workload from the profile
// (workloads.FromProfile — deterministic in the profile and seed), computes
// ground truth with a full simulation, replans with STEM+ROOT under the same
// options the printed plan was built from, and scores the plan's estimate
// against the truth. The segment cache makes repeat validations cheap: with
// -cachedir, a second run of the same profile serves its full simulation
// from disk instead of re-simulating.
func simulateProfile(cfg cliConfig, planOpts stemroot.Options, names []string, times []float64, out io.Writer) error {
	w := workloads.FromProfile(filepath.Base(cfg.profilePath), names, times, cfg.seed, cfg.simCalls)

	opts, finish, err := cfg.sim.Options()
	if err != nil {
		return err
	}
	defer finish()

	gcfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	full, err := pipeline.FullSimOpt(w, gcfg, lim, opts)
	if err != nil {
		return err
	}
	stem := &sampling.STEMRoot{Params: planOpts.Params()}
	r, err := pipeline.RunOpt(w, hwmodel.RTX2080, stem, gcfg, lim, full, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "\nsimulator validation (reconstructed workload, %d invocations):\n", w.Len())
	fmt.Fprintf(out, "  samples:          %d\n", r.Outcome.Samples)
	fmt.Fprintf(out, "  full cycles:      %.4e\n", r.FullCycles)
	fmt.Fprintf(out, "  estimated cycles: %.4e\n", r.EstimateCycles)
	fmt.Fprintf(out, "  measured error:   %.3f%% (bound %.2f)\n", r.Outcome.ErrorPct, cfg.epsilon)
	fmt.Fprintf(out, "  sim speedup:      %.1fx\n", r.Outcome.Speedup)
	return nil
}

// writePlan is -o: the plan as JSON at cfg.planOut, if one was asked for.
func writePlan(cfg cliConfig, plan *stemroot.Plan, out io.Writer) error {
	if cfg.planOut == "" {
		return nil
	}
	if err := cliopts.WriteFile(cfg.planOut, plan.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(out, "plan written to %s\n", cfg.planOut)
	return nil
}

// printClusters is -v: every cluster, largest share of the profile first.
func printClusters(out io.Writer, plan *stemroot.Plan) {
	totalTime := func(c stemroot.Cluster) float64 { return c.Mean * float64(c.Population) }
	sort.Slice(plan.Clusters, func(i, j int) bool {
		return totalTime(plan.Clusters[i]) > totalTime(plan.Clusters[j])
	})
	fmt.Fprintln(out, "\nclusters (by total time):")
	for _, c := range plan.Clusters {
		fmt.Fprintf(out, "  %-32s members=%-7d samples=%-5d mean=%10.2fus cov=%.3f\n",
			c.Kernel, c.Population, len(c.Samples), c.Mean, cov(c))
	}
}

func cov(c stemroot.Cluster) float64 {
	if c.Mean == 0 {
		return 0
	}
	return c.StdDev / c.Mean
}

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
//	stemroot -profile trace.csv -simulate -cacheaddr cachehost:9736
//
// With -simulate, the plan is additionally validated on the cycle-level
// simulator against a workload reconstructed from the profile; -cachedir
// persists segment results so repeat validations skip the full simulation,
// and -cacheaddr shares them through a cmd/cacheserver across machines and
// concurrent runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"

	"stemroot"
	"stemroot/internal/cachenet"
	"stemroot/internal/core"
	"stemroot/internal/gpu"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/metrics"
	"stemroot/internal/pipeline"
	"stemroot/internal/sampling"
	"stemroot/internal/simcache"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// cliConfig carries the parsed flags.
type cliConfig struct {
	profilePath  string
	epsilon      float64
	confidence   float64
	seed         uint64
	flat         bool
	stream       bool
	snapshot     int
	tdist        bool
	jobs         int
	planOut      string
	verbose      bool
	simulate     bool
	simCalls     int
	cacheDir     string
	cacheAddr    string
	cacheMB      int
	noCache      bool
	cacheStats   bool
	engine       string
	jkernel      int
	jmerge       int
	epoch        float64
	barrierStats bool

	stdin io.Reader // -profile - source; os.Stdin outside tests
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stemroot: ")

	var cfg cliConfig
	flag.StringVar(&cfg.profilePath, "profile", "", "profile CSV (seq,name,time_us)")
	flag.Float64Var(&cfg.epsilon, "epsilon", 0.05, "target relative error bound")
	flag.Float64Var(&cfg.confidence, "confidence", 0.95, "confidence level")
	flag.Uint64Var(&cfg.seed, "seed", 1, "sampling seed")
	flag.BoolVar(&cfg.flat, "flat", false, "disable ROOT's hierarchical splitting")
	flag.BoolVar(&cfg.stream, "stream", false, "single-pass streaming service mode (bounded memory; -profile - reads stdin; a malformed row is an error naming its line, and so is a stream cut mid-line unless the rest of its time field still parses as a number, which is then the last row)")
	flag.IntVar(&cfg.snapshot, "snapshot", 0, "with -stream, print a rolling plan snapshot every N invocations (0 = final only)")
	flag.BoolVar(&cfg.tdist, "tdist", false, "Student-t small-sample correction")
	flag.IntVar(&cfg.jobs, "j", 0, "worker count (0 = one per CPU, 1 = serial; output is identical)")
	flag.StringVar(&cfg.planOut, "o", "", "write the sampling plan as JSON to this path")
	flag.BoolVar(&cfg.verbose, "v", false, "print every cluster")
	flag.BoolVar(&cfg.simulate, "simulate", false, "validate the plan on the cycle-level simulator (synthetic workload reconstructed from the profile)")
	flag.IntVar(&cfg.simCalls, "simcalls", 256, "cap on simulated invocations in -simulate mode")
	flag.StringVar(&cfg.cacheDir, "cachedir", "", "persist -simulate segment results on disk in this directory (reused across runs)")
	flag.StringVar(&cfg.cacheAddr, "cacheaddr", "", "share -simulate segment results through the cacheserver at this address (host:port)")
	flag.IntVar(&cfg.cacheMB, "cachemb", 0, "in-memory segment cache bound in MiB (0 = default 256)")
	flag.BoolVar(&cfg.noCache, "nocache", false, "disable the segment-result cache in -simulate mode")
	flag.BoolVar(&cfg.cacheStats, "cachestats", true, "print per-tier cache counters to stderr after -simulate")
	flag.StringVar(&cfg.engine, "engine", "exact", "-simulate kernel engine: exact (bit-exact event loop) or par (relaxed-sync intra-kernel parallel)")
	flag.IntVar(&cfg.jkernel, "jkernel", 0, "intra-kernel workers for -engine par (0 = one per CPU; never changes results)")
	flag.IntVar(&cfg.jmerge, "jmerge", 0, "epoch-barrier merge workers for -engine par (0 = follow -jkernel; never changes results)")
	flag.Float64Var(&cfg.epoch, "epoch", 0, "epoch length in cycles for -engine par (0 = default; trades accuracy for sync cost)")
	flag.BoolVar(&cfg.barrierStats, "barrierstats", true, "print epoch-barrier accounting to stderr after -engine par -simulate runs")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this path on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile)
	}

	cfg.stdin = os.Stdin
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// writeHeapProfile records an up-to-date heap profile, the evidence base
// for allocation-focused perf work (go tool pprof <binary> <path>).
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Print(err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Print(err)
	}
}

func run(cfg cliConfig, out io.Writer) error {
	if cfg.profilePath == "" {
		return errors.New("missing -profile")
	}
	opts := stemroot.Options{
		Epsilon:      cfg.epsilon,
		Confidence:   cfg.confidence,
		Seed:         cfg.seed,
		Flat:         cfg.flat,
		SmallSampleT: cfg.tdist,
		Parallelism:  cfg.jobs,
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

	if cfg.planOut != "" {
		f, err := os.Create(cfg.planOut)
		if err != nil {
			return err
		}
		if err := plan.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "plan written to %s\n", cfg.planOut)
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
		if err := simulateProfile(cfg, names, times, out); err != nil {
			return err
		}
	}

	if cfg.verbose {
		sort.Slice(plan.Clusters, func(i, j int) bool {
			return totalTime(plan.Clusters[i]) > totalTime(plan.Clusters[j])
		})
		fmt.Fprintln(out, "\nclusters (by total time):")
		for _, c := range plan.Clusters {
			fmt.Fprintf(out, "  %-32s members=%-7d samples=%-5d mean=%10.2fus cov=%.3f\n",
				c.Kernel, len(c.Members), len(c.Samples), c.Mean, cov(c))
		}
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

	if cfg.planOut != "" {
		f, err := os.Create(cfg.planOut)
		if err != nil {
			return err
		}
		if err := plan.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "plan written to %s\n", cfg.planOut)
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
		sort.Slice(plan.Clusters, func(i, j int) bool {
			return totalTime(plan.Clusters[i]) > totalTime(plan.Clusters[j])
		})
		fmt.Fprintln(out, "\nclusters (by total time):")
		for _, c := range plan.Clusters {
			fmt.Fprintf(out, "  %-32s members=%-7d samples=%-5d mean=%10.2fus cov=%.3f\n",
				c.Kernel, len(c.Members), len(c.Samples), c.Mean, cov(c))
		}
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
// ground truth with a full simulation, replans with STEM+ROOT, and scores
// the plan's estimate against the truth. The segment cache makes repeat
// validations cheap: with -cachedir, a second run of the same profile serves
// its full simulation from disk instead of re-simulating.
func simulateProfile(cfg cliConfig, names []string, times []float64, out io.Writer) error {
	w := workloads.ReduceForSim(
		workloads.FromProfile(filepath.Base(cfg.profilePath), names, times, cfg.seed),
		cfg.simCalls, 64)

	opts := pipeline.Options{
		Workers: cfg.jobs,
		Engine:  cfg.engine, KernelWorkers: cfg.jkernel,
		MergeWorkers: cfg.jmerge, Epoch: cfg.epoch,
	}
	if cfg.barrierStats && cfg.engine == gpu.EngineModePar {
		// Stderr-only observability, like cache stats: stdout stays
		// byte-comparable whether or not accounting is collected.
		collector := new(metrics.BarrierCollector)
		opts.BarrierStats = collector
		defer func() { log.Print(collector.Snapshot().String()) }()
	}
	var sc *simcache.Cache
	var client *cachenet.Client
	if !cfg.noCache {
		var remote simcache.Remote
		if cfg.cacheAddr != "" {
			client = cachenet.New(cachenet.ClientOptions{Addr: cfg.cacheAddr})
			// Close drains the pipelined write window so this run's computed
			// segments reach the server before the process exits. Idempotent:
			// the stats path below closes earlier to finalize the counters.
			defer client.Close()
			remote = client
		}
		var err error
		sc, err = simcache.New(simcache.Options{
			MaxBytes: int64(cfg.cacheMB) << 20,
			Dir:      cfg.cacheDir,
			Remote:   remote,
		})
		if err != nil {
			return err
		}
		opts.Cache = sc
	}

	gcfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	full, err := pipeline.FullSimOpt(w, gcfg, lim, opts)
	if err != nil {
		return err
	}
	p := core.DefaultParams()
	p.Epsilon = cfg.epsilon
	p.Confidence = cfg.confidence
	p.Seed = cfg.seed
	p.SmallSampleT = cfg.tdist
	p.Workers = cfg.jobs
	stem := &sampling.STEMRoot{Params: p}
	r, err := pipeline.RunOpt(w, hwmodel.RTX2080, stem, gcfg, lim, full, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "\nsimulator validation (reconstructed workload, %d invocations):\n", w.Len())
	fmt.Fprintf(out, "  full cycles:      %.4e\n", r.FullCycles)
	fmt.Fprintf(out, "  estimated cycles: %.4e\n", r.EstimateCycles)
	fmt.Fprintf(out, "  measured error:   %.3f%% (bound %.2f)\n", r.Outcome.ErrorPct, cfg.epsilon)
	fmt.Fprintf(out, "  sim speedup:      %.1fx\n", r.Outcome.Speedup)
	if sc != nil && cfg.cacheStats {
		// Drain the write window first so the counters are final; stats go
		// to stderr so stdout stays byte-comparable across cached and
		// uncached runs.
		if client != nil {
			client.Close()
		}
		log.Printf("segment cache: %s", sc.Stats())
	}
	return nil
}

func totalTime(c stemroot.Cluster) float64 {
	n := len(c.Members)
	if n == 0 { // streaming plans carry the population in the weight
		n = int(c.Weight*float64(len(c.Samples)) + 0.5)
	}
	return c.Mean * float64(n)
}

func cov(c stemroot.Cluster) float64 {
	if c.Mean == 0 {
		return 0
	}
	return c.StdDev / c.Mean
}

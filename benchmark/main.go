// Command benchmark is the repository's benchmark: five workloads, five
// gated end-to-end metrics, and a traced per-layer replay of each.
//
//	go run ./benchmark --workload dse_cold --seed 1 --seconds 12 --trace 0
//	go run ./benchmark                      # every workload, both modes
//
// One run measures one workload for --seconds and prints, as the last line
// of standard output, a JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1); the tables a person reads go to
// standard error. BENCHMARK.json at the repository root names the metrics,
// their units and bounds; README.md explains what each is for.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
)

// perLayer are the ungated metrics of the traced run, layer = package.
// A metric whose layer a workload bypasses reads 0 there.
var perLayer = []metricSpec{
	{Name: "trace.self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.csv_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.csv_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.fast_decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "trace.fast_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.rows", Unit: "count", Better: "higher"},
	{Name: "hwmodel.self_ms", Unit: "ms", Better: "lower"},
	{Name: "hwmodel.profile_ns_per_inv", Unit: "ns", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_clusters_ms", Unit: "ms", Better: "lower"},
	{Name: "core.kkt_ms", Unit: "ms", Better: "lower"},
	{Name: "core.clusters", Unit: "count", Better: "lower"},
	{Name: "core.predicted_err_pct", Unit: "%", Better: "lower"},
	{Name: "core.incr_add_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "core.incr_plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.incr_replans", Unit: "count", Better: "lower"},
	{Name: "sampling.self_ms", Unit: "ms", Better: "lower"},
	{Name: "sampling.stem_plan_ms", Unit: "ms", Better: "lower"},
	{Name: "sampling.estimate_us", Unit: "us", Better: "lower"},
	{Name: "sampling.samples", Unit: "count", Better: "lower"},
	{Name: "sampling.est_err_pct", Unit: "%", Better: "lower"},
	{Name: "sampling.speedup_x", Unit: "x", Better: "higher"},
	{Name: "kernelgen.self_ms", Unit: "ms", Better: "lower"},
	{Name: "kernelgen.from_invocation_ns", Unit: "ns", Better: "lower"},
	{Name: "kernelgen.stream_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "kernelgen.specs", Unit: "count", Better: "lower"},
	{Name: "gpu.self_ms", Unit: "ms", Better: "lower"},
	{Name: "gpu.key_hash_us_per_seg", Unit: "us", Better: "lower"},
	{Name: "gpu.segments", Unit: "count", Better: "lower"},
	{Name: "gpu.run_kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "gpu.run_kernel_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "gpu.instructions", Unit: "count", Better: "higher"},
	{Name: "gpu.cycles_total", Unit: "cycles", Better: "lower"},
	{Name: "gpu.l1_hit_pct", Unit: "%", Better: "higher"},
	{Name: "gpu.l2_hit_pct", Unit: "%", Better: "higher"},
	{Name: "gpu.exact_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "gpu.exact_wall_jn_ms", Unit: "ms", Better: "lower"},
	{Name: "gpu.par_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "gpu.par_wall_jn_ms", Unit: "ms", Better: "lower"},
	{Name: "gpu.par_err_pct", Unit: "%", Better: "lower"},
	{Name: "gpu.par_kernel_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "gpu.par_over_exact_x", Unit: "x", Better: "lower"},
	{Name: "gpu.par_merge_share_pct", Unit: "%", Better: "lower"},
	{Name: "gpu.par_epochs", Unit: "count", Better: "lower"},
	{Name: "gpu.par_replayed", Unit: "count", Better: "lower"},
	{Name: "gpu.par_l2_misses", Unit: "count", Better: "lower"},
	{Name: "simcache.self_ms", Unit: "ms", Better: "lower"},
	{Name: "simcache.lookup_us_per_seg", Unit: "us", Better: "lower"},
	{Name: "simcache.mem_hit_us", Unit: "us", Better: "lower"},
	{Name: "simcache.disk_hit_us", Unit: "us", Better: "lower"},
	{Name: "simcache.disk_put_us", Unit: "us", Better: "lower"},
	{Name: "simcache.encode_us", Unit: "us", Better: "lower"},
	{Name: "simcache.hits_mem", Unit: "count", Better: "higher"},
	{Name: "simcache.hits_disk", Unit: "count", Better: "higher"},
	{Name: "simcache.hits_remote", Unit: "count", Better: "higher"},
	{Name: "simcache.misses", Unit: "count", Better: "lower"},
	{Name: "simcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cachenet.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "cachenet.get_us", Unit: "us", Better: "lower"},
	{Name: "cachenet.batch_get_us_per_key", Unit: "us", Better: "lower"},
	{Name: "cachenet.put_us", Unit: "us", Better: "lower"},
	{Name: "cachenet.fail_count", Unit: "count", Better: "lower"},
	{Name: "parallel.seg_scale_x", Unit: "x", Better: "higher"},
	{Name: "parallel.par_scale_x", Unit: "x", Better: "higher"},
	{Name: "parallel.dispatch_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "pipeline.fullsim_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.run_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "stemroot.self_ms", Unit: "ms", Better: "lower"},
	{Name: "stemroot.sample_ms", Unit: "ms", Better: "lower"},
	{Name: "stemroot.plan_json_write_ms", Unit: "ms", Better: "lower"},
	{Name: "stemroot.plan_json_read_ms", Unit: "ms", Better: "lower"},
	{Name: "stemroot.stream_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.samples", Unit: "count", Better: "higher"},
	{Name: "harness.untraced_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.wall_iqr_pct", Unit: "%", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.workers", Unit: "count", Better: "higher"},
}

// Temporary inputs (the serving trace file, the primed cache directory)
// are removed on every exit path: by defer on return, and by this handler
// on SIGINT/SIGTERM. The loopback server dies with the process.
var (
	tempMu   sync.Mutex
	tempDirs []string
)

func removeOnSignal(dir string) {
	tempMu.Lock()
	defer tempMu.Unlock()
	tempDirs = append(tempDirs, dir)
}

func handleSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		tempMu.Lock()
		for _, d := range tempDirs {
			os.RemoveAll(d)
		}
		os.Exit(130)
	}()
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run; empty runs all five, each in its own process, end to end then traced")
	seed := fs.Uint64("seed", 1, "seed of every input generator")
	seconds := fs.Float64("seconds", 12, "how long one run measures")
	trace := fs.Int("trace", 0, "0: timed end-to-end samples; 1: decomposed per-layer replay under spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	handleSignals()
	if *workload == "" {
		return runAll(*seed, *seconds, stdout)
	}
	cfg := &config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		outDir: "benchmark/out", size: fullSizes, workers: workerCount(),
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll runs every workload in a child process of its own (so peak memory
// and heap state are each workload's), untraced and then traced, and fails
// if any child fails or reports an incorrect output.
func runAll(seed uint64, seconds float64, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for _, def := range workloadDefs {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			cmd := exec.Command(self, "--workload", def.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			err := cmd.Run() // a terminal's SIGINT reaches the child too; Run waits for it
			stdout.Write(out.Bytes())
			var res result
			if err == nil {
				err = json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res)
			}
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s --trace %s failed (%v)\n", def.name, trace, err)
				status = 1
			}
		}
	}
	return status
}

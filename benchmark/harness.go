package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// config is one run: a workload, the seed every generator derives from,
// and how long to measure.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // traces and temporary inputs; emptied of the latter on exit
	size     sizes
	workers  int // N of the "jn" rungs
}

// metricSpec is one line of BENCHMARK.json's metric lists.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics; every workload reports every one. All
// are host-side. The simulated-side numbers (estimate error, sampling
// speed-up, par-engine error) move with the seed's inputs by more than any
// bound allows, so they are per-layer metrics and output checks instead.
// The bounds are the widest the contract allows: on the 2-core sandbox the
// 10-run median of an unchanged wall clock drifts by up to a tenth within
// minutes (README, "Noise").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"throughput_mps", "M/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"alloc_mb", "MiB", "lower", 0.25},
}

// checker counts output checks: each is one attempted operation.
type checker struct {
	attempted, failed int
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(c *checker, specs []metricSpec, values map[string]float64) result {
	r := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		r.Metrics[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return r
}

// measure runs one workload as cfg says: the timed end-to-end samples, or
// with cfg.trace the decomposed replay under spans.
func measure(cfg *config) (result, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	dir, err := os.MkdirTemp(cfg.outDir, "tmp-"+def.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	removeOnSignal(dir)
	runtime.GOMAXPROCS(cfg.workers)
	if cfg.trace {
		return measureLayers(cfg, def, dir)
	}
	return measureEndToEnd(cfg, def, dir)
}

// setupBudget is how many seconds of set-up a run repeats into beyond its
// fixed count.
const setupBudget = 1.0

// timedSample is one sample's wall clock, heap allocation and outputs.
func timedSample(inst *instance, workers int) (wall, allocMB float64, out []float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out, err = inst.sample(workers)
	wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	return wall, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), out, err
}

func measureEndToEnd(cfg *config, def *workloadDef, dir string) (result, error) {
	c := &checker{}

	// Set up several times and report the median: a single set-up is at
	// the mercy of one page-cache flush or allocator growth. Cheap set-ups,
	// the noisiest in relative terms, are repeated further while they fit
	// in setupBudget.
	var inst *instance
	var setups []float64
	var spent float64
	for i := 0; i < cfg.size.setups || (i < 3*cfg.size.setups && spent < setupBudget); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(cfg, dir); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	defer inst.close()
	resetPeakRSS() // so the peak is the measured program's, not the generators'

	// Untimed warm-up at one worker and at N; it also fixes the reference
	// outputs and shows they do not depend on the worker count.
	n := cfg.workers
	_, _, ref, err := timedSample(inst, 1)
	if err != nil {
		return result{}, err
	}
	_, _, refN, err := timedSample(inst, n)
	if err != nil {
		return result{}, err
	}
	c.check(equalBits(refN, ref), "%s: outputs differ between 1 and %d workers", def.name, n)

	// Closed loop, one operation at a time. While the wall clock's spread
	// is above half its bound the loop runs on, to at most half again the
	// planned time.
	var walls, allocs []float64
	start := time.Now()
	planned := time.Duration(cfg.seconds * float64(time.Second))
	for {
		w, a, out, err := timedSample(inst, inst.workers)
		if err != nil {
			return result{}, err
		}
		c.check(equalBits(out, ref), "%s: a sample's outputs differ from the first", def.name)
		walls, allocs = append(walls, w), append(allocs, a)
		el := time.Since(start)
		if len(walls) < cfg.size.minSamples || el < planned {
			continue
		}
		if el >= planned*3/2 || !unresolved(walls) {
			break
		}
	}
	peak := peakRSSMB()

	if inst.verify != nil {
		if err := inst.verify(c); err != nil {
			return result{}, err
		}
	}

	samples := map[string][]float64{
		"setup_s": setups, "wall_s": walls, "alloc_mb": allocs, "peak_rss_mb": {peak},
	}
	for _, w := range walls {
		samples["throughput_mps"] = append(samples["throughput_mps"], inst.work/w)
	}
	values := map[string]float64{}
	fmt.Fprintf(os.Stderr, "%s  seed %d  end-to-end (closed loop, one operation at a time, %d of N=%d workers)\n", def.name, cfg.seed, inst.workers, n)
	for _, spec := range endToEnd {
		s := summarize(samples[spec.Name])
		values[spec.Name] = s.Median
		printSummary(spec, s, spec.Name == "wall_s" && unresolved(walls))
	}
	fmt.Fprintf(os.Stderr, "  checks: %d attempted, %d failed\n", c.attempted, c.failed)
	return newResult(c, endToEnd, values), nil
}

// unresolved reports whether wall-clock samples spread (IQR over median)
// beyond half of wall_s's bound: the median is then printed with that flag,
// since a difference of the bound's size could be noise.
func unresolved(walls []float64) bool {
	for _, spec := range endToEnd {
		if spec.Name == "wall_s" {
			return summarize(walls).iqrShare() > spec.Bound/2
		}
	}
	return false
}

func printSummary(spec metricSpec, s summary, flag bool) {
	note := ""
	if flag {
		note = fmt.Sprintf("  UNRESOLVED: iqr %.1f%% of median, bound %.0f%%", 100*s.iqrShare(), 100*spec.Bound)
	}
	fmt.Fprintf(os.Stderr, "  %-34s %12.4f %-6s q1 %.4f q3 %.4f min %.4f max %.4f n %d%s\n",
		spec.Name, s.Median, spec.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N, note)
}

// spanMetrics derives per-layer metrics from a replay pass's span self
// times: the span's self (or whole) nanoseconds, divided by a count of the
// pass when per is set, in units of unitNS nanoseconds.
var spanMetrics = []struct {
	metric, span, per string
	unitNS            float64
	whole             bool
}{
	{"trace.csv_decode_ms", "trace.csv_decode", "", 1e6, false},
	{"trace.fast_decode_ns_per_row", "trace.fast_decode", "trace.rows", 1, false},
	{"hwmodel.profile_ns_per_inv", "hwmodel.profile", "_profiled_invs", 1, false},
	{"core.incr_add_ns_per_row", "core.incr_add", "trace.rows", 1, false},
	{"core.incr_plan_ms", "core.incr_plan", "", 1e6, false},
	{"sampling.stem_plan_ms", "sampling.stem_plan", "", 1e6, false},
	{"sampling.estimate_us", "sampling.estimate", "", 1e3, false},
	{"kernelgen.from_invocation_ns", "kernelgen.from_invocation", "kernelgen.specs", 1, false},
	{"gpu.key_hash_us_per_seg", "gpu.key_hash", "gpu.segments", 1e3, false},
	{"gpu.run_kernel_ms", "gpu.run_kernel", "", 1e6, false},
	{"gpu.run_kernel_ns_per_instr", "gpu.run_kernel", "_run_instructions", 1, false},
	{"simcache.lookup_us_per_seg", "simcache.get_or_compute", "gpu.segments", 1e3, false},
	{"pipeline.fullsim_ms", "pipeline.fullsim", "", 1e6, true},
	{"pipeline.run_ms", "pipeline.run", "", 1e6, true},
	{"stemroot.sample_ms", "stemroot.sample", "", 1e6, false},
	{"stemroot.plan_json_write_ms", "stemroot.plan_json_write", "", 1e6, false},
	{"stemroot.stream_snapshot_ms", "stemroot.stream_snapshot", "", 1e6, false},
}

// passMetrics turns one replay pass into per-layer metric values.
// untraced is the median wall clock of the untraced samples so far.
func passMetrics(lt map[string]layerTime, counts map[string]float64, untraced float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range counts {
		if !strings.HasPrefix(k, "_") {
			m[k] = v
		}
	}
	for _, sm := range spanMetrics {
		ns := float64(lt[sm.span].SelfNS)
		if sm.whole {
			ns = float64(lt[sm.span].SpanNS)
		}
		if sm.per != "" {
			if counts[sm.per] == 0 {
				continue
			}
			ns /= counts[sm.per]
		}
		m[sm.metric] = ns / sm.unitNS
	}
	mbPerS := func(bytes float64, span string) float64 {
		if ns := float64(lt[span].SelfNS); ns > 0 {
			return bytes / 1e6 / (ns / 1e9)
		}
		return 0
	}
	m["trace.csv_decode_mb_per_s"] = mbPerS(counts["_csv_bytes"], "trace.csv_decode")
	m["trace.fast_decode_mb_per_s"] = mbPerS(counts["_fast_bytes"], "trace.fast_decode")

	// Self times per package, and the replay's whole duration: the roots
	// are the pipeline.* spans, whose own self time is the replay's glue.
	var replayNS, layersNS float64
	for name, t := range lt {
		pkg, _, _ := strings.Cut(name, ".")
		if pkg == "pipeline" {
			replayNS += float64(t.SpanNS)
			continue
		}
		layersNS += float64(t.SelfNS)
		m[pkg+".self_ms"] += float64(t.SelfNS) / 1e6
	}
	if untraced > 0 {
		m["pipeline.unattributed_pct"] = 100 * (untraced*1e9 - layersNS) / (untraced * 1e9)
		m["harness.trace_overhead_pct"] = 100 * (replayNS - untraced*1e9) / (untraced * 1e9)
	}
	return m
}

func measureLayers(cfg *config, def *workloadDef, dir string) (result, error) {
	c := &checker{}
	inst, err := def.setup(cfg, dir)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", def.name, cfg.seed, time.Now().UnixNano()), def.name)
	start := time.Now()

	ref, err := inst.sample(1) // warm-up, and the outputs the replay must match
	if err != nil {
		return result{}, err
	}

	// Alternate an untraced sample with a replay pass for half the time;
	// the one-off measurements take the rest.
	var untraced []float64
	passes := map[string][]float64{}
	for len(untraced) < 3 || time.Since(start).Seconds() < cfg.seconds/2 {
		t0 := time.Now()
		out, err := inst.sample(1)
		if err != nil {
			return result{}, err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		c.check(equalBits(out, ref), "%s: an untraced sample's outputs differ from the first", def.name)

		tr.Spans = tr.Spans[:0] // the file keeps the last pass and the extras
		mark := tr.mark()
		out, counts, err := inst.replay(tr)
		if err != nil {
			return result{}, fmt.Errorf("replay: %w", err)
		}
		c.check(equalBits(out, ref), "%s: the decomposed replay's outputs differ from the pipeline's", def.name)
		for k, v := range passMetrics(tr.selfTimes(mark, tr.mark()), counts, median(untraced)) {
			passes[k] = append(passes[k], v)
		}
	}

	values := map[string]float64{}
	for k, vs := range passes {
		values[k] = median(vs)
	}
	s := summarize(untraced)
	values["harness.samples"] = float64(s.N)
	values["harness.untraced_wall_ms"] = 1e3 * s.Median
	values["harness.wall_iqr_pct"] = 100 * s.iqrShare()
	values["harness.workers"] = float64(cfg.workers)
	if inst.extras != nil {
		if err := inst.extras(tr, c, values); err != nil {
			return result{}, err
		}
	}

	tracePath := filepath.Join(cfg.outDir, "trace-"+def.name+".json")
	if err := tr.write(tracePath); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "%s  seed %d  N=%d  per layer (median of %d replay passes; %d spans in %s)\n",
		def.name, cfg.seed, cfg.workers, s.N, len(tr.Spans), tracePath)
	for _, spec := range perLayer {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", spec.Name, values[spec.Name], spec.Unit)
	}
	fmt.Fprintf(os.Stderr, "  checks: %d attempted, %d failed\n", c.attempted, c.failed)
	return newResult(c, perLayer, values), nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB,
// or 0 where /proc does not say.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// high-water mark from the current resident set. Where the kernel refuses
// (the write needs Linux 4.0), the peak simply includes set-up.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

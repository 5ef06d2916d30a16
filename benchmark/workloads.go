package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// sizes fixes how much work each workload does. fullSizes is what
// BENCHMARK.json measures; the tests run the same code at toySizes.
type sizes struct {
	dseMaxCalls   int      // invocations kept per reduced DSE workload
	dseSets       int      // independent draws of the workload set in one sweep
	dseNames      []string // the sweep's workloads
	dseVariants   []string // GPU variants of the sweep
	warmSweeps    int      // consecutive warm sweeps in one dse_warm sample
	scaleMaxCalls int      // invocations per sim_scale workload
	scaleNames    []string // sim_scale's workloads
	hfScale       float64  // HuggingFace suite scale of plan_batch
	serveRows     int      // invocations in stream_serve's trace
	serveEvery    int      // rows between rolling snapshots
	setups        int      // set-up repetitions; the median is reported
	minSamples    int      // timed samples per rung, at least
}

var fullSizes = sizes{
	dseMaxCalls: 8,
	dseSets:     2,
	// The paper's 17 less lavamd and pf_float: those two are half a
	// sweep's time, and their invocation counts swing a quarter either way
	// with the seed, which no bound on a timing could absorb.
	dseNames: []string{
		"backprop", "bfs", "btree", "gaussian", "heartwall", "hotspot", "kmeans", "lud", "nw",
		"bert", "bloom", "deit", "gemma", "gpt2", "resnet50",
	},
	dseVariants:   []string{"baseline", "cache_half"},
	warmSweeps:    100,
	scaleMaxCalls: 64,
	scaleNames:    []string{"backprop", "heartwall", "bert", "resnet50"},
	hfScale:       0.1,
	serveRows:     1_000_000,
	serveEvery:    100_000,
	setups:        3,
	minSamples:    5,
}

var toySizes = sizes{
	dseMaxCalls:   3,
	dseSets:       1,
	dseNames:      []string{"backprop", "nw", "bert"},
	dseVariants:   []string{"baseline", "sm_x2"},
	warmSweeps:    2,
	scaleMaxCalls: 20,
	scaleNames:    []string{"backprop", "bert"},
	hfScale:       0.004,
	serveRows:     20_000,
	serveEvery:    5_000,
	setups:        1,
	minSamples:    2,
}

// instance is one workload set up and ready to measure.
type instance struct {
	// sample makes one end-to-end sample at the given worker count and
	// returns its outputs flattened, for bit comparison between samples,
	// between worker counts and against the replay. It makes its own
	// checks on state a caller cannot see (cache tier counters).
	sample func(workers int) ([]float64, error)
	// workers is the worker count of the timed samples: 1, or N on the
	// workload that exists to measure the parallel path.
	workers int
	// work is how many 10^6 work units one sample completes: simulated
	// warp instructions, or profile invocations on the planner workloads.
	work float64
	// verify makes the untimed output checks that go beyond equality.
	verify func(c *checker) error
	// replay is sample(1) performed layer by layer under spans. It
	// returns the sample's outputs and the pass's counts, keyed by
	// per-layer metric name (helper denominators start with "_").
	replay func(tr *tracer) ([]float64, map[string]float64, error)
	// extras makes the traced run's one-off measurements after the replay
	// passes: layer probes, decompositions and rungs that are not
	// end-to-end metrics. It adds to (and may read) the run's values.
	extras func(tr *tracer, c *checker, out map[string]float64) error
	// close releases files, directories and servers.
	close func()
}

type workloadDef struct {
	name, why string
	setup     func(cfg *config, dir string) (*instance, error)
}

// The five workloads. Names are fixed: later issues cite them.
var workloadDefs = []workloadDef{
	{"dse_cold", "design-space sweep with nothing cached: the gpu event loop and kernelgen streams do nearly all the work, so engine changes show here and nowhere else", setupDSECold},
	{"dse_warm", "the same sweep served from a primed disk cache: the event loop is bypassed, leaving spec generation, key hashing, cache tiers, profiling and planning", setupDSEWarm},
	{"sim_scale", "full simulation of longer kernels at 1 and N workers: the only workload where the parallel scheduler, ordered commit and the par engine do the work", setupSimScale},
	{"plan_batch", "stemroot -profile on HuggingFace profiles with the simulator idle: CSV decode, ROOT clustering, KKT sizing and plan JSON dominate", setupPlanBatch},
	{"stream_serve", "stemroot -stream over a serving trace file: the zero-alloc decoder feeding the incremental planner, where bounded memory and re-plan amortisation show", setupStreamServe},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// ------------------------------------------------------------ sim sweeps

func flattenCells(rs []cellResult) []float64 {
	out := make([]float64, 0, 3*len(rs))
	for _, r := range rs {
		out = append(out, r.Full, r.Sampled, r.Estimate)
	}
	return out
}

// sweep runs sweepCell over every cell.
func sweep(cells []simCell, seed uint64, o simOpts) ([]cellResult, error) {
	out := make([]cellResult, len(cells))
	for i, c := range cells {
		r, err := sweepCell(c, seed, o)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", c.cfg.Name, c.w.Name, err)
		}
		out[i] = r
	}
	return out, nil
}

// simCounts turns a replay pass's observations into per-layer counts.
func simCounts(st *simStats, rs []cellResult) map[string]float64 {
	m := map[string]float64{
		"kernelgen.specs":   float64(st.specs),
		"gpu.segments":      float64(st.segments),
		"gpu.instructions":  float64(st.instructions),
		"_run_instructions": float64(st.runInstructions),
		"gpu.cycles_total":  st.cycles,
		"sampling.samples":  float64(st.samples),
		"_profiled_invs":    0,
	}
	if st.kernels > 0 {
		m["gpu.l1_hit_pct"] = 100 * st.l1Hit / float64(st.kernels)
		m["gpu.l2_hit_pct"] = 100 * st.l2Hit / float64(st.kernels)
	}
	if st.samples > 0 { // a sampled-simulation pass: every invocation was profiled
		m["_profiled_invs"] = float64(st.kernels)
		m["sampling.est_err_pct"], m["sampling.speedup_x"] = accuracy(rs)
	}
	return m
}

// accuracy is the mean |estimate − truth| / truth in percent and the
// harmonic mean of truth cycles / sampled cycles over the cells.
func accuracy(rs []cellResult) (errPct, speedup float64) {
	var inv float64
	for _, r := range rs {
		errPct += r.errPct()
		if r.Full > 0 {
			inv += r.Sampled / r.Full
		}
	}
	n := float64(len(rs))
	if inv == 0 {
		return errPct / n, 0
	}
	return errPct / n, n / inv
}

func addCacheStats(m map[string]float64, st cacheStats) {
	m["simcache.hits_mem"] = float64(st.MemHits)
	m["simcache.hits_disk"] = float64(st.DiskHits)
	m["simcache.hits_remote"] = float64(st.RemoteHits)
	m["simcache.misses"] = float64(st.Misses)
	if total := st.Hits + st.Misses; total > 0 {
		m["simcache.hit_ratio"] = float64(st.Hits) / float64(total)
	}
}

func setupDSECold(cfg *config, dir string) (*instance, error) {
	cells, err := dseCells(cfg.seed, cfg.size.dseMaxCalls, cfg.size.dseSets, cfg.size.dseVariants, cfg.size.dseNames)
	if err != nil {
		return nil, err
	}
	instrs := staticInstructions(cells)
	inst := &instance{workers: 1, work: float64(instrs) / 1e6, close: func() {}}
	inst.sample = func(workers int) ([]float64, error) {
		cache, err := newCache("", nil)
		if err != nil {
			return nil, err
		}
		rs, err := sweep(cells, cfg.seed, simOpts{workers: workers, cache: cache})
		return flattenCells(rs), err
	}
	inst.replay = func(tr *tracer) ([]float64, map[string]float64, error) {
		cache, err := newCache("", nil)
		if err != nil {
			return nil, nil, err
		}
		st := &simStats{}
		rs, err := replaySweep(tr, cells, cfg.seed, cache, true, st)
		if err != nil {
			return nil, nil, err
		}
		m := simCounts(st, rs)
		addCacheStats(m, cache.Stats())
		if st.instructions != instrs {
			return nil, nil, fmt.Errorf("simulator executed %d instructions, specs promise %d", st.instructions, instrs)
		}
		return flattenCells(rs), m, nil
	}
	inst.extras = func(tr *tracer, c *checker, out map[string]float64) error {
		out["kernelgen.stream_ns_per_instr"] = probeStreams(tr, cells, 2_000_000)
		return nil
	}
	return inst, nil
}

func setupDSEWarm(cfg *config, dir string) (inst *instance, err error) {
	cells, err := dseCells(cfg.seed, cfg.size.dseMaxCalls, cfg.size.dseSets, cfg.size.dseVariants, cfg.size.dseNames)
	if err != nil {
		return nil, err
	}
	primed := filepath.Join(dir, "primed")
	lb, err := startLoopback()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			lb.close()
		}
	}()

	// Prime every tier with one cold sweep. The disk tier fsyncs each
	// entry and the client drains its write window on Close, so cache
	// writes are paid here, in setup_s.
	writer := lb.client()
	cold, err := newCache(primed, writer)
	if err != nil {
		writer.Close()
		return nil, err
	}
	ref, err := sweep(cells, cfg.seed, simOpts{workers: 1, cache: cold})
	writer.Close()
	if err != nil {
		return nil, err
	}
	keys := cold.Stats().Misses // one computed entry per distinct segment
	if st := writer.Stats(); st.PutDrops != 0 || st.Errors != 0 {
		return nil, fmt.Errorf("priming the loopback server: %d dropped, %d failed writes", st.PutDrops, st.Errors)
	}

	reader := lb.client()
	inst = &instance{
		workers: 1,
		work:    float64(staticInstructions(cells)) / 1e6 * float64(cfg.size.warmSweeps),
		close:   func() { reader.Close(); lb.close(); os.RemoveAll(primed) },
	}
	// warmSweep is one sweep against a fresh cache over one primed tier:
	// the disk directory ("second run with -cachedir") or the server
	// ("second machine with -cacheaddr"). Every lookup must be served by
	// that tier and the results must be the priming sweep's.
	warmSweep := func(workers int, remote *netClient) ([]cellResult, cacheStats, error) {
		d := primed
		if remote != nil {
			d = ""
		}
		cache, err := newCache(d, remote)
		if err != nil {
			return nil, cacheStats{}, err
		}
		rs, err := sweep(cells, cfg.seed, simOpts{workers: workers, cache: cache})
		if err != nil {
			return nil, cacheStats{}, err
		}
		st := cache.Stats()
		tier := st.DiskHits
		if remote != nil {
			tier = st.RemoteHits
		}
		if st.Misses != 0 || tier != keys {
			return nil, st, fmt.Errorf("warm sweep not served by its tier (%d entries primed): %s", keys, st)
		}
		return rs, st, nil
	}
	inst.sample = func(workers int) ([]float64, error) {
		var rs []cellResult
		for i := 0; i < cfg.size.warmSweeps; i++ {
			var err error
			if rs, _, err = warmSweep(workers, nil); err != nil {
				return nil, err
			}
		}
		return flattenCells(rs), nil
	}
	inst.verify = func(c *checker) error {
		rs, _, err := warmSweep(1, nil)
		c.check(err == nil && equalBits(flattenCells(rs), flattenCells(ref)), "dse_warm: disk-tier sweep differs from the priming sweep (%v)", err)
		rs, _, err = warmSweep(1, reader)
		c.check(err == nil && equalBits(flattenCells(rs), flattenCells(ref)), "dse_warm: remote-tier sweep differs from the priming sweep (%v)", err)
		return nil
	}
	var entries []cacheEntry
	inst.replay = func(tr *tracer) ([]float64, map[string]float64, error) {
		var rs []cellResult
		total := map[string]float64{}
		for i := 0; i < cfg.size.warmSweeps; i++ {
			cache, err := newCache(primed, nil)
			if err != nil {
				return nil, nil, err
			}
			st := &simStats{keepEntries: entries == nil}
			if rs, err = replaySweep(tr, cells, cfg.seed, cache, true, st); err != nil {
				return nil, nil, err
			}
			if st.keepEntries {
				entries = st.entries
			}
			m := simCounts(st, rs)
			addCacheStats(m, cache.Stats())
			if m["simcache.misses"] != 0 {
				return nil, nil, fmt.Errorf("replay missed the primed disk tier: %s", cache.Stats())
			}
			for k, v := range m {
				switch k {
				case "gpu.l1_hit_pct", "gpu.l2_hit_pct", "sampling.est_err_pct", "sampling.speedup_x", "simcache.hit_ratio":
					total[k] = v // rates, identical in every sweep
				default:
					total[k] += v
				}
			}
		}
		return flattenCells(rs), total, nil
	}
	inst.extras = func(tr *tracer, c *checker, out map[string]float64) error {
		// The remote tier whole: a sample's worth of sweeps against a
		// fresh cache holding only the server.
		var walls []float64
		for i := 0; i < 4; i++ {
			id := tr.begin("cachenet.sweep")
			t0 := time.Now()
			for j := 0; j < cfg.size.warmSweeps; j++ {
				rs, st, err := warmSweep(1, reader)
				c.check(err == nil && equalBits(flattenCells(rs), flattenCells(ref)), "dse_warm: remote-tier sweep differs from the priming sweep (%v)", err)
				out["simcache.hits_remote"] = float64(st.RemoteHits)
			}
			tr.end(id)
			if i > 0 { // the first is the warm-up
				walls = append(walls, time.Since(t0).Seconds()*1e3)
			}
		}
		out["cachenet.sweep_ms"] = median(walls)

		probeDir := filepath.Join(dir, "probe")
		defer os.RemoveAll(probeDir)
		p, err := probeCaches(tr, entries, probeDir)
		if err != nil {
			return err
		}
		out["simcache.mem_hit_us"], out["simcache.disk_hit_us"] = p.memHitUS, p.diskHitUS
		out["simcache.disk_put_us"], out["simcache.encode_us"] = p.diskPutUS, p.encodeUS
		out["cachenet.get_us"], out["cachenet.batch_get_us_per_key"], out["cachenet.put_us"] = p.netGetUS, p.netBatchUS, p.netPutUS
		out["cachenet.fail_count"] = float64(p.netFails)
		c.check(p.netFails == 0, "dse_warm: %d cache probe operations failed", p.netFails)
		return nil
	}
	return inst, nil
}

func setupSimScale(cfg *config, dir string) (*instance, error) {
	cells, err := dseCells(cfg.seed, cfg.size.scaleMaxCalls, 1, []string{"baseline"}, cfg.size.scaleNames)
	if err != nil {
		return nil, err
	}
	instrs := staticInstructions(cells)
	n := cfg.workers
	run := func(o simOpts) ([]float64, error) {
		out := make([]float64, len(cells))
		for i, c := range cells {
			total, err := fullSimTotal(c, o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.w.Name, err)
			}
			out[i] = total
		}
		return out, nil
	}
	inst := &instance{workers: n, work: float64(instrs) / 1e6, close: func() {}}
	inst.sample = func(workers int) ([]float64, error) { return run(simOpts{workers: workers}) }
	inst.replay = func(tr *tracer) ([]float64, map[string]float64, error) {
		st := &simStats{}
		rs, err := replaySweep(tr, cells, cfg.seed, nil, false, st)
		if err != nil {
			return nil, nil, err
		}
		if st.instructions != instrs {
			return nil, nil, fmt.Errorf("simulator executed %d instructions, specs promise %d", st.instructions, instrs)
		}
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = r.Full
		}
		return out, simCounts(st, rs), nil
	}
	inst.extras = func(tr *tracer, c *checker, out map[string]float64) error {
		// The other three rungs, interleaved; the exact engine at one
		// worker is the untraced sample of the replay passes. Both N-worker
		// rungs are reported as measured, also when they lose to one worker.
		exact, err := inst.sample(1)
		if err != nil {
			return err
		}
		rungs := []simOpts{
			{workers: n},
			{workers: 1, par: true, kernelWorkers: 1},
			{workers: 1, par: true, kernelWorkers: n},
		}
		walls := make([][]float64, len(rungs))
		outs := make([][]float64, len(rungs))
		for i := 0; i < 3; i++ {
			for r, o := range rungs {
				t0 := time.Now()
				res, err := run(o)
				if err != nil {
					return err
				}
				walls[r] = append(walls[r], time.Since(t0).Seconds()*1e3)
				if i == 0 {
					outs[r] = res
				}
				c.check(equalBits(res, outs[r]), "sim_scale: rung %d is not repeatable", r)
			}
		}
		c.check(equalBits(outs[0], exact), "sim_scale: exact engine differs between 1 and %d workers", n)
		c.check(equalBits(outs[2], outs[1]), "sim_scale: par engine differs between 1 and %d kernel workers", n)
		exact1, exactN, par1, parN := out["harness.untraced_wall_ms"], median(walls[0]), median(walls[1]), median(walls[2])
		out["gpu.exact_wall_ms"], out["gpu.exact_wall_jn_ms"] = exact1, exactN
		out["gpu.par_wall_ms"], out["gpu.par_wall_jn_ms"] = par1, parN
		out["parallel.seg_scale_x"], out["parallel.par_scale_x"] = exact1/exactN, par1/parN
		for i := range cells {
			e := 100 * math.Abs(outs[1][i]-exact[i]) / exact[i]
			out["gpu.par_err_pct"] = math.Max(out["gpu.par_err_pct"], e)
		}

		// The par engine by layer: the same kernels through RunKernelPar
		// at one kernel worker, with the epoch-barrier accounting on.
		st := &simStats{}
		mark := tr.mark()
		bs, err := replayPar(tr, cells, st)
		if err != nil {
			return err
		}
		parNS := float64(tr.selfTimes(mark, tr.mark())["gpu.run_kernel"].SelfNS)
		mark = tr.mark()
		if _, err := replaySweep(tr, cells, cfg.seed, nil, false, &simStats{}); err != nil {
			return err
		}
		exactNS := float64(tr.selfTimes(mark, tr.mark())["gpu.run_kernel"].SelfNS)
		out["gpu.par_kernel_ns_per_instr"] = parNS / float64(st.instructions)
		out["gpu.par_over_exact_x"] = parNS / exactNS
		out["gpu.par_merge_share_pct"] = bs.MergeSharePct()
		out["gpu.par_epochs"], out["gpu.par_replayed"], out["gpu.par_l2_misses"] = float64(bs.Epochs), float64(bs.Replayed), float64(bs.Misses)

		out["kernelgen.stream_ns_per_instr"] = probeStreams(tr, cells, 2_000_000)
		out["parallel.dispatch_ns_per_item"] = probeDispatch(tr, n)
		return nil
	}
	return inst, nil
}

// --------------------------------------------------------------- planners

// stemEpsilon is STEM's default error bound (core.DefaultParams), which
// every plan here is built with.
const stemEpsilon = 0.05

func flattenPlans(os []planOutcome) []float64 {
	out := make([]float64, 0, 7*len(os))
	for _, o := range os {
		out = append(out, o.Estimate, o.Truth, o.SampledTime, o.PredictedError, float64(o.Clusters), float64(o.Samples), float64(o.JSONBytes))
	}
	return out
}

// planAccuracy is the mean estimate error in percent and the harmonic mean
// of total profile time over distinct sampled time.
func planAccuracy(os []planOutcome) (errPct, speedup float64) {
	var inv float64
	for _, o := range os {
		errPct += o.errPct()
		inv += o.SampledTime / o.Truth
	}
	n := float64(len(os))
	return errPct / n, n / inv
}

func setupPlanBatch(cfg *config, dir string) (*instance, error) {
	profiles, err := hfProfiles(cfg.seed, cfg.size.hfScale)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, p := range profiles {
		rows += p.rows
	}
	inst := &instance{workers: 1, work: float64(rows) / 1e6, close: func() {}}
	inst.sample = func(workers int) ([]float64, error) {
		outs := make([]planOutcome, len(profiles))
		for i, p := range profiles {
			o, err := planBatch(p, cfg.seed, workers, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			outs[i] = o
		}
		return flattenPlans(outs), nil
	}
	inst.verify = func(c *checker) error {
		for _, p := range profiles {
			var plan *batchPlan
			var js []byte
			if _, err := planBatch(p, cfg.seed, 1, func(pl *batchPlan, b []byte) { plan, js = pl, b }); err != nil {
				return err
			}
			c.check(planRoundTrips(plan, js), "plan_batch: %s plan does not survive WriteJSON/ReadPlanJSON", p.name)
			c.check(plan.PredictedError <= stemEpsilon, "plan_batch: %s predicted error %.4f above ε", p.name, plan.PredictedError)
		}
		return nil
	}
	inst.replay = func(tr *tracer) ([]float64, map[string]float64, error) {
		m := map[string]float64{"trace.rows": float64(rows)}
		outs := make([]planOutcome, len(profiles))
		for i, p := range profiles {
			o, err := replayPlanBatch(tr, p, cfg.seed)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", p.name, err)
			}
			outs[i] = o
			m["_csv_bytes"] += float64(len(p.data))
			m["core.clusters"] += float64(outs[i].Clusters)
			m["core.predicted_err_pct"] = math.Max(m["core.predicted_err_pct"], 100*outs[i].PredictedError)
			m["sampling.samples"] += float64(outs[i].Samples)
		}
		m["sampling.est_err_pct"], m["sampling.speedup_x"] = planAccuracy(outs)
		return flattenPlans(outs), m, nil
	}
	inst.extras = func(tr *tracer, c *checker, out map[string]float64) error {
		var build, kkt, read []float64
		for i := 0; i < 3; i++ {
			mark := tr.mark()
			for _, p := range profiles {
				_, coreMatches, roundTrips, err := decomposePlan(tr, p, cfg.seed)
				if err != nil {
					return fmt.Errorf("%s: %w", p.name, err)
				}
				c.check(coreMatches, "plan_batch: %s BuildClusters+OptimalSizes disagree with stemroot.Sample", p.name)
				c.check(roundTrips, "plan_batch: %s plan does not survive WriteJSON/ReadPlanJSON", p.name)
			}
			lt := tr.selfTimes(mark, tr.mark())
			build = append(build, float64(lt["core.build_clusters"].SelfNS)/1e6)
			kkt = append(kkt, float64(lt["core.kkt"].SelfNS)/1e6)
			read = append(read, float64(lt["stemroot.plan_json_read"].SelfNS)/1e6)
		}
		out["core.build_clusters_ms"], out["core.kkt_ms"], out["stemroot.plan_json_read_ms"] = median(build), median(kkt), median(read)
		return nil
	}
	return inst, nil
}

func flattenStream(o streamOutcome) []float64 {
	s := o.Final
	return []float64{
		float64(s.Invocations), float64(s.Kernels), s.TotalTimeUS, s.ExtrapolatedUS, float64(s.Clusters),
		float64(s.TotalSamples), s.DistinctTimeUS, s.PredictedError, float64(s.Replans),
		float64(o.Snapshots), float64(o.Distinct), o.PredErr,
	}
}

func setupStreamServe(cfg *config, dir string) (*instance, error) {
	path := filepath.Join(dir, "serve.csv")
	if err := writeServeTrace(path, cfg.seed, cfg.size.serveRows); err != nil {
		os.Remove(path)
		return nil, err
	}
	rows, every := cfg.size.serveRows, cfg.size.serveEvery
	inst := &instance{workers: 1, work: float64(rows) / 1e6, close: func() { os.Remove(path) }}
	var last streamOutcome
	inst.sample = func(workers int) ([]float64, error) {
		var err error
		last, err = streamServe(path, cfg.seed, workers, every)
		return flattenStream(last), err
	}
	inst.verify = func(c *checker) error {
		c.check(last.Final.Invocations == rows, "stream_serve: scanned %d rows of %d generated", last.Final.Invocations, rows)
		c.check(last.PredErr <= stemEpsilon, "stream_serve: predicted error %.4f above ε", last.PredErr)
		return nil
	}
	var mem *streamRows
	inst.replay = func(tr *tracer) ([]float64, map[string]float64, error) {
		if mem == nil {
			var err error
			if mem, err = loadStreamRows(path); err != nil {
				return nil, nil, err
			}
		}
		o, decoded, err := replayStream(tr, path, mem, cfg.seed, every)
		if err != nil {
			return nil, nil, err
		}
		if decoded != rows {
			return nil, nil, fmt.Errorf("decoder yielded %d rows of %d generated", decoded, rows)
		}
		s := o.Final
		m := map[string]float64{
			"trace.rows":             float64(decoded),
			"_fast_bytes":            float64(mem.bytes),
			"core.clusters":          float64(s.Clusters),
			"core.predicted_err_pct": 100 * o.PredErr,
			"core.incr_replans":      float64(s.Replans),
			"sampling.samples":       float64(s.TotalSamples),
			"sampling.est_err_pct":   100 * math.Abs(s.ExtrapolatedUS-s.TotalTimeUS) / s.TotalTimeUS,
			"sampling.speedup_x":     s.TotalTimeUS / s.DistinctTimeUS,
		}
		return flattenStream(o), m, nil
	}
	return inst, nil
}

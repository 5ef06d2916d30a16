package gpu

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"stemroot/internal/kernelgen"
	"stemroot/internal/parallel"
)

// refMergeEpochLinear is the preserved-reference barrier merge: the
// pre-loser-tree coordinator merge, verbatim — linear O(#shards) head-scan
// per access (strict `<`, so ties go to the lower SM id), replay against
// the shared L2 and global DRAM queue in (timestamp, SM-id) order, inline
// shadow-MSHR acquires and correction accumulation, then the per-shard
// correction sweep. The production merge (serial loser-tree and banked
// three-phase alike) must be bit-identical to this for every input; the
// oracle tests below swap it in through the parEngine.testMerge hook.
func refMergeEpochLinear(s *Simulator, k *kernelConsts, dramFree float64) float64 {
	shards := s.shards
	heads := s.par.heads
	for {
		best := -1
		var bt float64
		for sm := range shards {
			i := heads[sm]
			if i >= len(shards[sm].acc) {
				continue
			}
			if t := shards[sm].acc[i].t; best < 0 || t < bt {
				best, bt = sm, t
			}
		}
		if best < 0 {
			break
		}
		a := shards[best].acc[heads[best]]
		heads[best]++
		trueFill := k.l2Fill
		if !s.l2.Access(a.addr) {
			queue := dramFree - a.t
			if queue < 0 {
				queue = 0
			}
			if dramFree < a.t {
				dramFree = a.t
			}
			dramFree += k.dramService
			trueFill = k.dramLat + queue
		}
		trueIssue := s.par.shadow[best].acquire(a.t, trueFill, k.mshrCap)
		trueLat := (trueIssue - a.t) + trueFill
		shards[best].corr[a.slot] += k.depFrac * (trueLat - a.lat)
	}
	for sm := range shards {
		sh := &shards[sm]
		if len(sh.acc) > 0 {
			s.mshrs[sm].release, s.par.shadow[sm].release =
				s.par.shadow[sm].release, s.mshrs[sm].release
			if sh.hasHeld {
				sh.held.shift(sh.corr[sh.held.slot])
			}
			h := &sh.heap
			for i := range h.ev[:h.n] {
				h.ev[i].shift(sh.corr[h.ev[i].slot])
			}
			h.heapify()
			for i := range sh.corr {
				sh.corr[i] = 0
			}
		}
		sh.acc = sh.acc[:0]
		heads[sm] = 0
	}
	return dramFree
}

// refMergeEpochLinearRecord is refMergeEpochLinear instrumented to record
// each access's true fill latency, keyed by (SM, buffer index) — the
// classification record the banked-replay property test compares against.
func refMergeEpochLinearRecord(s *Simulator, k *kernelConsts, dramFree float64, rec map[[2]int]float64) float64 {
	shards := s.shards
	heads := s.par.heads
	for {
		best := -1
		var bt float64
		for sm := range shards {
			i := heads[sm]
			if i >= len(shards[sm].acc) {
				continue
			}
			if t := shards[sm].acc[i].t; best < 0 || t < bt {
				best, bt = sm, t
			}
		}
		if best < 0 {
			break
		}
		idx := heads[best]
		a := shards[best].acc[idx]
		heads[best]++
		trueFill := k.l2Fill
		if !s.l2.Access(a.addr) {
			queue := dramFree - a.t
			if queue < 0 {
				queue = 0
			}
			if dramFree < a.t {
				dramFree = a.t
			}
			dramFree += k.dramService
			trueFill = k.dramLat + queue
		}
		rec[[2]int{best, idx}] = trueFill
		trueIssue := s.par.shadow[best].acquire(a.t, trueFill, k.mshrCap)
		trueLat := (trueIssue - a.t) + trueFill
		shards[best].corr[a.slot] += k.depFrac * (trueLat - a.lat)
	}
	for sm := range shards {
		sh := &shards[sm]
		if len(sh.acc) > 0 {
			s.mshrs[sm].release, s.par.shadow[sm].release =
				s.par.shadow[sm].release, s.mshrs[sm].release
			for i := range sh.corr {
				sh.corr[i] = 0
			}
		}
		sh.acc = sh.acc[:0]
		heads[sm] = 0
	}
	return dramFree
}

// hookMerge installs an oracle merge on a simulator, initializing the par
// arena exactly as RunKernelPar's lazy path would.
func hookMerge(s *Simulator, fn func(k *kernelConsts, dramFree float64) float64) {
	s.ensurePar()
	s.par.testMerge = fn
}

// unclampProcsMerge raises GOMAXPROCS so parallel.Workers does not collapse
// the pool on a small machine (the in-package twin of scaling_test.go's
// helper).
func unclampProcsMerge(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

var mergeOracleSpecs = []*kernelgen.Spec{
	specFor(0.8, 0.2, 1<<22, 3e6), // memory-bound, low locality: miss-heavy merge
	specFor(0.5, 0.5, 1<<20, 2e6), // mixed
	specFor(0.3, 0.9, 1<<16, 1e6), // compute-leaning, hot footprint: hit-heavy merge
}

// TestMergeEpochMatchesReferenceLinearScan is the tentpole oracle: across
// configurations, kernel sequences (warm L2 and warm arenas), epochs, and
// worker counts, the production merge — serial loser-tree at j1, banked
// three-phase under merge workers — must produce bit-identical kernel
// results to the preserved-reference linear-scan merge.
func TestMergeEpochMatchesReferenceLinearScan(t *testing.T) {
	unclampProcsMerge(t, 8)
	for _, variant := range []string{"baseline", "cache_half", "sm_half"} {
		cfg, err := Variant(variant)
		if err != nil {
			t.Fatal(err)
		}
		for _, epoch := range []float64{16, 64, 257.5} {
			ref := mustSim(t, cfg)
			hookMerge(ref, func(k *kernelConsts, dramFree float64) float64 {
				return refMergeEpochLinear(ref, k, dramFree)
			})
			for _, workers := range []int{1, 4} {
				got := mustSim(t, cfg)
				for ki, spec := range mergeOracleSpecs {
					want := ref.RunKernelPar(spec, 1, epoch)
					have := got.RunKernelParMerge(spec, workers, workers, epoch)
					if have != want {
						t.Fatalf("%s epoch=%v workers=%d kernel=%d: %+v != reference %+v",
							variant, epoch, workers, ki, have, want)
					}
				}
				if got.l2.Hits != ref.l2.Hits || got.l2.Misses != ref.l2.Misses {
					t.Fatalf("%s epoch=%v workers=%d: L2 stats (%d,%d) != reference (%d,%d)",
						variant, epoch, workers, got.l2.Hits, got.l2.Misses, ref.l2.Hits, ref.l2.Misses)
				}
				// Re-run the reference for the next worker count.
				ref = mustSim(t, cfg)
				hookMerge(ref, func(k *kernelConsts, dramFree float64) float64 {
					return refMergeEpochLinear(ref, k, dramFree)
				})
			}
		}
	}
}

// mergeHarness builds a Simulator whose par arena is primed for direct
// merge-level calls: constants hoisted, bank geometry fixed for mw merge
// workers, phase closures bound, and a live pool. populate fills the shard
// buffers; the caller then invokes a merge and inspects state.
type mergeHarness struct {
	s    *Simulator
	pool *parallel.Pool
}

func newMergeHarness(t testing.TB, cfg Config, nw, mw int) *mergeHarness {
	s := mustSim(t, cfg)
	s.ensurePar()
	s.setConsts(mergeOracleSpecs[0])
	s.parSetupMerge(nw, mw)
	s.parBindPhases()
	poolW := nw
	if mw > poolW {
		poolW = mw
	}
	pool := parallel.NewPool(poolW, nil)
	s.par.pool = pool
	t.Cleanup(pool.Close)
	return &mergeHarness{s: s, pool: pool}
}

// populate loads identical synthetic access buffers into the harness:
// accesses[sm] lists (t ascending within each SM). Warp-slot corrections
// are sized to the highest slot used.
func (h *mergeHarness) populate(accesses [][]parAccess) {
	for sm := range h.s.shards {
		sh := &h.s.shards[sm]
		sh.acc = append(sh.acc[:0], accesses[sm]...)
		maxSlot := 0
		for _, a := range accesses[sm] {
			if int(a.slot) > maxSlot {
				maxSlot = int(a.slot)
			}
		}
		for len(sh.corr) <= maxSlot {
			sh.corr = append(sh.corr, 0)
		}
		h.s.par.shadow[sm].release = h.s.par.shadow[sm].release[:0]
		h.s.mshrs[sm].release = h.s.mshrs[sm].release[:0]
		if h.s.par.wantBanked && len(sh.acc) > 0 {
			h.s.bucketShard(sm)
		}
	}
}

// synthAccesses generates per-SM time-ordered access streams. singleBank
// confines every address to L2 set 0 — the degenerate stream that must
// serialize through one bank without deadlock or reorder. Includes
// cross-SM timestamp ties (quantized times) to exercise the SM-id
// tie-break.
func synthAccesses(cfg Config, perSM int, seed int64, singleBank bool) [][]parAccess {
	rng := rand.New(rand.NewSource(seed))
	setStride := uint64(cfg.L2.LineBytes) // consecutive lines, consecutive sets
	sets := uint64(cfg.L2.Sets())
	out := make([][]parAccess, cfg.SMs)
	for sm := 0; sm < cfg.SMs; sm++ {
		t := float64(0)
		accs := make([]parAccess, 0, perSM)
		for i := 0; i < perSM; i++ {
			t += math.Floor(rng.Float64() * 3) // 0,1,2 — plenty of ties
			var addr uint64
			if singleBank {
				// All lines land in set 0: line = k * sets.
				addr = uint64(rng.Intn(64)) * sets * setStride
			} else {
				addr = uint64(rng.Intn(1<<14)) * setStride
			}
			accs = append(accs, parAccess{
				t:    t,
				addr: addr,
				lat:  float64(rng.Intn(400)),
				slot: int32(rng.Intn(8)),
			})
		}
		out[sm] = accs
	}
	return out
}

// runMergePair runs the banked merge and the reference linear-scan merge on
// identically populated harnesses and compares everything observable:
// returned DRAM queue, L2 hit/miss counters, post-merge L2 residency, the
// swapped-in MSHR release heaps, and — the per-access classification
// property — every access's true fill latency.
func runMergePair(t *testing.T, cfg Config, mw int, accesses [][]parAccess, warm []uint64) {
	t.Helper()
	banked := newMergeHarness(t, cfg, 1, mw)
	ref := newMergeHarness(t, cfg, 1, 1)
	for _, addr := range warm {
		banked.s.l2.Access(addr)
		ref.s.l2.Access(addr)
	}
	banked.populate(accesses)
	ref.populate(accesses)

	total := 0
	for _, a := range accesses {
		total += len(a)
	}
	rec := make(map[[2]int]float64, total)
	const dramSeed = 123.5
	wantDram := refMergeEpochLinearRecord(ref.s, &ref.s.k, dramSeed, rec)
	if !banked.s.par.wantBanked {
		t.Fatal("harness did not arm the banked path")
	}
	gotDram := banked.s.mergeEpochBanked(&banked.s.k, dramSeed, total)

	if gotDram != wantDram {
		t.Fatalf("mw=%d: dramFree %v != reference %v", mw, gotDram, wantDram)
	}
	if banked.s.l2.Hits != ref.s.l2.Hits || banked.s.l2.Misses != ref.s.l2.Misses {
		t.Fatalf("mw=%d: L2 stats (%d,%d) != reference (%d,%d)",
			mw, banked.s.l2.Hits, banked.s.l2.Misses, ref.s.l2.Hits, ref.s.l2.Misses)
	}
	for sm := range accesses {
		for i, a := range accesses[sm] {
			want := rec[[2]int{sm, i}]
			got := banked.s.shards[sm].fill[i]
			if got != want {
				t.Fatalf("mw=%d: sm=%d access=%d trueFill %v != reference %v (addr %#x t %v)",
					mw, sm, i, got, want, a.addr, a.t)
			}
		}
		// Residency after the merge must agree for every touched line.
		for _, a := range accesses[sm] {
			if g, w := banked.s.l2.Probe(a.addr), ref.s.l2.Probe(a.addr); g != w {
				t.Fatalf("mw=%d: sm=%d addr=%#x residency %v != reference %v", mw, sm, a.addr, g, w)
			}
		}
		// The swapped-in MSHR state (the shadow file's acquire outcomes).
		g, w := banked.s.mshrs[sm].release, ref.s.mshrs[sm].release
		if len(g) != len(w) {
			t.Fatalf("mw=%d: sm=%d mshr heap size %d != reference %d", mw, sm, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("mw=%d: sm=%d mshr heap[%d] %v != reference %v", mw, sm, i, g[i], w[i])
			}
		}
	}
}

// TestMergeBankedMatchesSerial is the banked replay's classification
// property test: on synthetic shard buffers (uniform and single-set mixes,
// warm and cold L2, timestamp ties across SMs) the three-phase banked merge
// must classify every access — hit vs miss, and the exact fill latency —
// identically to the reference serial replay, for merge-worker counts on
// both sides of the bank count.
func TestMergeBankedMatchesSerial(t *testing.T) {
	unclampProcsMerge(t, 8)
	cfg := Baseline()
	warm := make([]uint64, 0, 512)
	for i := 0; i < 512; i++ {
		warm = append(warm, uint64(i*3)*uint64(cfg.L2.LineBytes))
	}
	for _, mw := range []int{2, 3, 8, 512} {
		for seed := int64(1); seed <= 3; seed++ {
			runMergePair(t, cfg, mw, synthAccesses(cfg, 200, seed, false), warm)
		}
	}
}

// TestMergeDegenerateStreams covers the merge's degenerate inputs at the
// state level: a zero-access epoch (phase fan-outs over nothing), an
// all-one-set address stream (every access serializes through one bank —
// must neither deadlock nor reorder), and an all-miss storm against a
// one-entry MSHR file (shadow MSHRs saturated from the first access).
func TestMergeDegenerateStreams(t *testing.T) {
	unclampProcsMerge(t, 8)
	cfg := Baseline()

	t.Run("zero-accesses", func(t *testing.T) {
		h := newMergeHarness(t, cfg, 1, 4)
		h.populate(make([][]parAccess, cfg.SMs))
		if got := h.s.mergeEpoch(&h.s.k, 42); got != 42 {
			t.Fatalf("empty merge moved dramFree: %v", got)
		}
	})

	t.Run("single-bank", func(t *testing.T) {
		for _, mw := range []int{2, 8} {
			runMergePair(t, cfg, mw, synthAccesses(cfg, 150, 7, true), nil)
		}
	})

	t.Run("all-miss-mshr-saturated", func(t *testing.T) {
		tiny := cfg
		tiny.MSHRsPerSM = 1
		// Cold L2, every line distinct per SM and across SMs: every replay
		// is a miss, and the one-slot shadow MSHR queues every acquire.
		accesses := make([][]parAccess, tiny.SMs)
		line := uint64(0)
		for sm := 0; sm < tiny.SMs; sm++ {
			for i := 0; i < 300; i++ {
				line += 17
				accesses[sm] = append(accesses[sm], parAccess{
					t:    float64(i),
					addr: line * uint64(tiny.L2.LineBytes),
					lat:  100,
					slot: int32(i % 4),
				})
			}
		}
		runMergePair(t, tiny, 4, accesses, nil)
	})
}

// TestRunKernelParMergeWorkerInvariant extends the determinism matrix
// across merge-worker counts: at a fixed epoch, every (kernel-workers x
// merge-workers) combination — including defaults, merge workers exceeding
// the bank count, and warm back-to-back kernels — must be bit-identical to
// the j1/j1 serial run.
func TestRunKernelParMergeWorkerInvariant(t *testing.T) {
	unclampProcsMerge(t, 8)
	cfg := Baseline()
	const epoch = DefaultEpoch

	base := mustSim(t, cfg)
	var want []KernelResult
	for _, spec := range mergeOracleSpecs {
		want = append(want, base.RunKernelParMerge(spec, 1, 1, epoch))
	}

	for _, jk := range []int{1, 2, 5, 8} {
		for _, jm := range []int{0, 1, 2, 3, 8, 512} {
			sim := mustSim(t, cfg)
			for ki, spec := range mergeOracleSpecs {
				if got := sim.RunKernelParMerge(spec, jk, jm, epoch); got != want[ki] {
					t.Fatalf("jkernel=%d jmerge=%d kernel=%d: %+v != serial %+v", jk, jm, ki, got, want[ki])
				}
			}
		}
	}

	// RunKernelPar must be exactly the jmerge-default spelling.
	sim := mustSim(t, cfg)
	for ki, spec := range mergeOracleSpecs {
		if got := sim.RunKernelPar(spec, 4, epoch); got != want[ki] {
			t.Fatalf("RunKernelPar default merge workers: kernel=%d %+v != %+v", ki, got, want[ki])
		}
	}
}

// TestMergeBankedPathExercised guards the dispatcher: a memory-bound kernel
// under merge workers must actually take the banked path (otherwise the
// oracle tests above would vacuously pass through the serial merge).
func TestMergeBankedPathExercised(t *testing.T) {
	unclampProcsMerge(t, 8)
	sim := mustSim(t, Baseline())
	sim.RunKernelParMerge(mergeOracleSpecs[0], 4, 4, DefaultEpoch)
	if sim.par.bankedEpochs == 0 {
		t.Fatal("no epoch took the banked merge path under jmerge=4")
	}
	if sim.par.replayed == 0 {
		t.Fatal("no accesses replayed")
	}
}

// TestLoserTreeMatchesLinearScan cross-checks the tournament tree against a
// plain linear minimum scan over randomized multi-stream key sequences,
// including exhaustion, duplicates (stream-id tie-break), and single-stream
// trees.
func TestLoserTreeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, streams := range []int{1, 2, 3, 7, 16, 33} {
		var lt loserTree
		lt.ensure(streams)
		remaining := make([]int, streams)
		keys := make([]float64, streams)
		for s := range keys {
			remaining[s] = rng.Intn(40)
			if remaining[s] == 0 {
				keys[s] = math.Inf(1)
			} else {
				keys[s] = math.Floor(rng.Float64() * 10)
			}
			lt.key[s] = keys[s]
		}
		lt.build()
		for {
			// Linear-scan expectation: least (key, stream).
			best := -1
			for s := 0; s < streams; s++ {
				if math.IsInf(keys[s], 1) {
					continue
				}
				if best < 0 || keys[s] < keys[best] {
					best = s
				}
			}
			winner := int(lt.node[0])
			if best < 0 {
				break
			}
			if winner != best {
				t.Fatalf("streams=%d: tree winner %d (key %v), scan winner %d (key %v)",
					streams, winner, lt.key[winner], best, keys[best])
			}
			remaining[best]--
			if remaining[best] == 0 {
				keys[best] = math.Inf(1)
			} else {
				keys[best] += math.Floor(rng.Float64() * 4)
			}
			lt.key[best] = keys[best]
			lt.update(int32(best))
		}
	}
}

// BenchmarkMergeEpoch measures the barrier merge in isolation on synthetic
// epoch buffers: the serial loser-tree merge vs the banked three-phase
// merge on 4 merge workers, over a uniform address mix and a skewed one
// (90% of accesses in one quarter of the sets). bench.sh gates banked-j4 ≥
// 2x serial on ≥4-core machines. Bucketing runs inside the timed region
// for the banked case — in production it rides the parallel compute phase,
// so this is the conservative accounting.
func BenchmarkMergeEpoch(b *testing.B) {
	cfg := Baseline()
	const perSM = 2048
	gen := func(skewed bool) [][]parAccess {
		rng := rand.New(rand.NewSource(5))
		out := make([][]parAccess, cfg.SMs)
		sets := int(cfg.L2.Sets())
		for sm := 0; sm < cfg.SMs; sm++ {
			t := float64(0)
			for i := 0; i < perSM; i++ {
				t += rng.Float64() * 2
				set := rng.Intn(sets)
				if skewed && rng.Float64() < 0.9 {
					set = rng.Intn(sets / 4)
				}
				line := uint64(set) + uint64(rng.Intn(64))*uint64(sets)
				out[sm] = append(out[sm], parAccess{
					t:    t,
					addr: line * uint64(cfg.L2.LineBytes),
					lat:  float64(rng.Intn(400)),
					slot: int32(rng.Intn(16)),
				})
			}
		}
		return out
	}
	for _, mix := range []struct {
		name   string
		skewed bool
	}{{"uniform", false}, {"skewed", true}} {
		accesses := gen(mix.skewed)
		for _, mode := range []struct {
			name string
			mw   int
		}{{"serial", 1}, {"banked-j4", 4}} {
			b.Run(fmt.Sprintf("%s/%s", mix.name, mode.name), func(b *testing.B) {
				h := newMergeHarness(b, cfg, 1, mode.mw)
				s := h.s
				k := &s.k
				total := cfg.SMs * perSM
				var dram float64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for sm := range s.shards {
						sh := &s.shards[sm]
						sh.acc = append(sh.acc[:0], accesses[sm]...)
					}
					if i == 0 {
						// Size corr to the slots used (stable after first round).
						b.StopTimer()
						for sm := range s.shards {
							sh := &s.shards[sm]
							for len(sh.corr) < 16 {
								sh.corr = append(sh.corr, 0)
							}
						}
					}
					b.StartTimer()
					if mode.mw > 1 {
						for sm := range s.shards {
							s.bucketShard(sm)
						}
						dram = s.mergeEpochBanked(k, dram, total)
					} else {
						dram = s.mergeEpochSerial(k, dram)
					}
				}
				b.ReportMetric(float64(total), "accesses/op")
			})
		}
	}
}

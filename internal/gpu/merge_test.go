package gpu

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"stemroot/internal/kernelgen"
)

// refMergeEpochLinear is the preserved-reference barrier merge: the
// pre-loser-tree coordinator merge, verbatim — linear O(#shards) head-scan
// per access (strict `<`, so ties go to the lower SM id), replay against
// the shared L2 and global DRAM queue in (timestamp, SM-id) order, inline
// shadow-MSHR acquires and correction accumulation, then the per-shard
// correction sweep. The production loser-tree merge must be bit-identical
// to this for every input; the oracle tests below swap it in through the
// parEngine.testMerge hook.
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
// worker counts, the production loser-tree merge must produce bit-identical
// kernel results to the preserved-reference linear-scan merge.
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
					have := got.RunKernelPar(spec, workers, epoch)
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

// newMergeSim returns a Simulator whose par arena is primed for direct
// merge-level calls (constants hoisted). populateMerge fills the shard
// buffers; the caller then invokes a merge and inspects state.
func newMergeSim(t testing.TB, cfg Config) *Simulator {
	s := mustSim(t, cfg)
	s.ensurePar()
	s.setConsts(mergeOracleSpecs[0])
	return s
}

// populateMerge loads synthetic access buffers into the simulator:
// accesses[sm] lists (t ascending within each SM). Warp-slot corrections
// are sized to the highest slot used.
func populateMerge(s *Simulator, accesses [][]parAccess) {
	for sm := range s.shards {
		sh := &s.shards[sm]
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
		s.par.shadow[sm].release = s.par.shadow[sm].release[:0]
		s.mshrs[sm].release = s.mshrs[sm].release[:0]
	}
}

// synthAccesses generates per-SM time-ordered access streams. singleBank
// confines every address to L2 set 0 — the degenerate stream where every
// access contends for one set's ways. Includes cross-SM timestamp ties
// (quantized times) to exercise the SM-id tie-break.
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

// runMergePair runs the production merge and the reference linear-scan
// merge on identically populated harnesses and compares everything
// observable: returned DRAM queue, L2 hit/miss counters, post-merge L2
// residency, and the swapped-in MSHR release heaps (which carry every
// access's true fill latency through the shadow file's acquire outcomes).
func runMergePair(t *testing.T, cfg Config, accesses [][]parAccess, warm []uint64) {
	t.Helper()
	got := newMergeSim(t, cfg)
	ref := newMergeSim(t, cfg)
	for _, addr := range warm {
		got.l2.Access(addr)
		ref.l2.Access(addr)
	}
	populateMerge(got, accesses)
	populateMerge(ref, accesses)

	const dramSeed = 123.5
	wantDram := refMergeEpochLinear(ref, &ref.k, dramSeed)
	gotDram := got.mergeEpochSerial(&got.k, dramSeed)

	if gotDram != wantDram {
		t.Fatalf("dramFree %v != reference %v", gotDram, wantDram)
	}
	if got.l2.Hits != ref.l2.Hits || got.l2.Misses != ref.l2.Misses {
		t.Fatalf("L2 stats (%d,%d) != reference (%d,%d)",
			got.l2.Hits, got.l2.Misses, ref.l2.Hits, ref.l2.Misses)
	}
	for sm := range accesses {
		// Residency after the merge must agree for every touched line.
		for _, a := range accesses[sm] {
			if g, w := got.l2.probeLine(got.l2.lineIndex(a.addr)), ref.l2.probeLine(ref.l2.lineIndex(a.addr)); g != w {
				t.Fatalf("sm=%d addr=%#x residency %v != reference %v", sm, a.addr, g, w)
			}
		}
		// The swapped-in MSHR state (the shadow file's acquire outcomes).
		g, w := got.mshrs[sm].release, ref.mshrs[sm].release
		if len(g) != len(w) {
			t.Fatalf("sm=%d mshr heap size %d != reference %d", sm, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("sm=%d mshr heap[%d] %v != reference %v", sm, i, g[i], w[i])
			}
		}
	}
}

// TestMergeDegenerateStreams covers the merge's degenerate inputs at the
// state level: a zero-access epoch, an all-one-set address stream (every
// access contends for the same ways), and an all-miss storm against a
// one-entry MSHR file (shadow MSHRs saturated from the first access).
func TestMergeDegenerateStreams(t *testing.T) {
	cfg := Baseline()

	t.Run("zero-accesses", func(t *testing.T) {
		s := newMergeSim(t, cfg)
		populateMerge(s, make([][]parAccess, cfg.SMs))
		if got := s.mergeEpochSerial(&s.k, 42); got != 42 {
			t.Fatalf("empty merge moved dramFree: %v", got)
		}
	})

	t.Run("single-bank", func(t *testing.T) {
		runMergePair(t, cfg, synthAccesses(cfg, 150, 7, true), nil)
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
		runMergePair(t, tiny, accesses, nil)
	})
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
// epoch buffers over a uniform address mix and a skewed one (90% of
// accesses in one quarter of the sets).
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
		b.Run(mix.name+"/serial", func(b *testing.B) {
			s := newMergeSim(b, cfg)
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
					// Size corr to the slots used (stable after first round).
					for len(sh.corr) < 16 {
						sh.corr = append(sh.corr, 0)
					}
				}
				b.StartTimer()
				dram = s.mergeEpochSerial(k, dram)
			}
			b.ReportMetric(float64(total), "accesses/op")
		})
	}
}

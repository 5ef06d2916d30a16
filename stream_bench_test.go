package stemroot_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"stemroot"
	"stemroot/internal/servetrace"
	"stemroot/internal/trace"
)

// benchTrace lazily materializes one serving-trace CSV shared by the
// streaming benchmarks (writing it is not part of the measured work).
var benchTrace struct {
	once sync.Once
	path string
	size int64
	rows int
	err  error
}

func servingCSV(b *testing.B) (string, int64, int) {
	benchTrace.once.Do(func() {
		const rows = 2_000_000
		dir, err := os.MkdirTemp("", "stemroot-bench")
		if err != nil {
			benchTrace.err = err
			return
		}
		path := filepath.Join(dir, "serving.csv")
		f, err := os.Create(path)
		if err != nil {
			benchTrace.err = err
			return
		}
		s := servetrace.New(servetrace.Config{Seed: 1, Invocations: rows})
		if err := s.WriteCSV(f); err != nil {
			f.Close()
			benchTrace.err = err
			return
		}
		if err := f.Close(); err != nil {
			benchTrace.err = err
			return
		}
		st, err := os.Stat(path)
		if err != nil {
			benchTrace.err = err
			return
		}
		benchTrace.path, benchTrace.size, benchTrace.rows = path, st.Size(), rows
	})
	if benchTrace.err != nil {
		b.Fatal(benchTrace.err)
	}
	return benchTrace.path, benchTrace.size, benchTrace.rows
}

// scanServingCSV decodes the on-disk serving trace through the zero-alloc
// ScanBytes path.
func scanServingCSV(b *testing.B, path string, yield func(name []byte, t float64) bool) {
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := trace.NewFastCSVReader(f).ScanBytes(yield); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStreamIngest measures planning end to end on the on-disk serving
// trace: the StreamPlanner fed by ScanBytes (one scan, no per-row garbage).
// bytes/s measures CSV throughput.
func BenchmarkStreamIngest(b *testing.B) {
	path, size, rows := servingCSV(b)

	b.Run("onepass", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			sp, err := stemroot.NewStreamPlanner(stemroot.Options{}, stemroot.StreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			scanServingCSV(b, path, func(name []byte, t float64) bool {
				sp.AddBytes(name, t)
				n++
				return true
			})
			if n != rows {
				b.Fatalf("scanned %d rows", n)
			}
			plan, err := sp.Plan()
			if err != nil {
				b.Fatal(err)
			}
			if len(plan.Clusters) == 0 {
				b.Fatal("empty plan")
			}
		}
	})
}

// BenchmarkIncrementalPlan measures one amortized re-derivation of the
// plan from warm reservoirs — the cost a serving deployment pays per
// re-plan (not per invocation).
func BenchmarkIncrementalPlan(b *testing.B) {
	path, _, _ := servingCSV(b)
	sp, err := stemroot.NewStreamPlanner(stemroot.Options{}, stemroot.StreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	scanServingCSV(b, path, func(name []byte, t float64) bool {
		sp.AddBytes(name, t)
		return true
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStreamIngestAllocFree pins the steady-state ingest loop at zero
// allocations per invocation: the production decoder (ScanBytes) feeding
// the planner's AddBytes over rows already in memory must not touch the
// heap beyond the reader's own setup.
func TestStreamIngestAllocFree(t *testing.T) {
	sp, err := stemroot.NewStreamPlanner(stemroot.Options{}, stemroot.StreamOptions{ReservoirCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 2000
	csv := []byte("seq,name,time_us\n" +
		strings.Repeat("17,attn_decode_l0,12.375\n18,mlp_decode_l1,9.5\n", pairs))
	ingest := func() {
		err := trace.NewFastCSVReader(bytes.NewReader(csv)).ScanBytes(func(name []byte, v float64) bool {
			sp.AddBytes(name, v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ingest() // warm up: intern the names and fill the reservoirs
	// Reader, bufio window and closure are a handful of allocations per
	// scan; the 4000 rows must add none.
	if allocs := testing.AllocsPerRun(5, ingest); allocs > 10 {
		t.Fatalf("steady-state ingest allocates %v per %d-row scan, want setup only", allocs, 2*pairs)
	}
}

// TestStreamBoundedMemory proves the O(#kernels × ReservoirCap) bound: the
// live heap attributable to a planner that ingested a 10⁷-invocation
// serving trace must be within 2× of a 10⁵-invocation one (same kernel
// set, same reservoir cap), plus 1 MiB of GC noise slack.
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁷-invocation ingest")
	}
	if raceEnabled {
		t.Skip("race runtime distorts heap accounting")
	}
	live := func(n int) float64 {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		sp, err := stemroot.NewStreamPlanner(stemroot.Options{},
			stemroot.StreamOptions{ReservoirCap: 1024})
		if err != nil {
			t.Fatal(err)
		}
		s := servetrace.New(servetrace.Config{Seed: 5, Invocations: n})
		if err := s.ScanBytes(func(name []byte, v float64) bool {
			sp.AddBytes(name, v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Plan(); err != nil {
			t.Fatal(err)
		}

		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sp)
		d := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		if d < 0 {
			d = 0
		}
		return d
	}

	small := live(100_000)
	big := live(10_000_000)
	if big > 2*small+float64(1<<20) {
		t.Fatalf("10⁷-invocation live heap %.2f MiB exceeds 2x the 10⁵ one (%.2f MiB)",
			big/(1<<20), small/(1<<20))
	}
	t.Logf("live heap: 10⁵ invocations %.2f MiB, 10⁷ invocations %.2f MiB", small/(1<<20), big/(1<<20))
}

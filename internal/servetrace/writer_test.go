package servetrace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// writeCSVGoldens are SHA-256 digests of WriteCSV's output recorded from
// the serial writer (strconv.AppendInt, the name, strconv.AppendFloat 'g'
// -1 per row through one bufio.Writer) at the commit before the pipeline.
var writeCSVGoldens = []struct {
	cfg    Config
	sha256 string
}{
	{Config{Seed: 1, Invocations: 1}, "19de0d08d74df16d286e75888c1739e8d5cab8e7f19363e250c42013ae39ea2d"},
	{Config{Seed: 1, Invocations: 8191}, "38c34b937c9cfd809fb7c2563b057343ae00348dc2d78afcfcd0f69c35836aca"},
	{Config{Seed: 1, Invocations: 8192}, "b747b4fc9472af6f66984ad2e231493a3b620816462ef0591b0360ab35ddbc34"},
	{Config{Seed: 1, Invocations: 8193}, "41a551dee973818dc4f0502a34d465e5e5c14ba7497dcfdd43fc5afbd926cc50"},
	{Config{Seed: 1, Invocations: 24593}, "c4edf6c9fdb415000cdc029f64a466b4cde85783c1efa1e606ee53ba9e02121c"},
	{Config{Seed: 1, Invocations: 200000}, "ab745ee95abfd22cafa7ba2489bb50b8fa7bb88de5359abacc50022751fe0d7b"},
	{Config{Seed: 1, Invocations: 1000000}, "838d502301fbfb1ab5807aa7b788a3a7191044aa18f1bcc7a1538b05d032bce8"},
}

func TestWriteCSVGoldens(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, g := range writeCSVGoldens {
			if testing.Short() && g.cfg.Invocations > 100000 {
				continue
			}
			h := sha256.New()
			if err := New(g.cfg).WriteCSV(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.sha256 {
				t.Errorf("GOMAXPROCS=%d %+v: sha256 %s, recorded %s", procs, g.cfg, got, g.sha256)
			}
		}
	}
}

// refWriteCSV is the writer at its plainest: one row at a time, strconv
// for both numbers, no chunks, no goroutines.
func refWriteCSV(s *Stream) []byte {
	out := []byte("seq,name,time_us\n")
	seq := 0
	_ = s.ScanBytes(func(name []byte, t float64) bool {
		out = strconv.AppendInt(out, int64(seq), 10)
		out = append(out, ',')
		out = append(out, name...)
		out = append(out, ',')
		out = strconv.AppendFloat(out, t, 'g', -1, 64)
		out = append(out, '\n')
		seq++
		return true
	})
	return out
}

// TestWriteCSVMatchesRowAtATime runs the pipeline around every chunk
// boundary at one, two and eight formatters — under -race, the ordering
// and hand-off contract of the three stages.
func TestWriteCSVMatchesRowAtATime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, chunkRows - 1, chunkRows, chunkRows + 1, 3*chunkRows + 17} {
			s := New(Config{Seed: 11, Invocations: n})
			var got bytes.Buffer
			if err := s.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if want := refWriteCSV(s); !bytes.Equal(got.Bytes(), want) {
				t.Errorf("GOMAXPROCS=%d, %d rows: %d bytes differ from the row-at-a-time writer's %d", procs, n, got.Len(), len(want))
			}
		}
	}
}

// failAfter accepts limit bytes, then fails every Write.
type failAfter struct {
	limit, written int
}

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		w.written = w.limit
		return n, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteCSVStopsAtFirstWriteError asks for a trace that would take
// hours and fails the writer after k bytes: WriteCSV must return that
// error having generated no more than the rows written plus the ring, and
// leave no goroutine behind.
func TestWriteCSVStopsAtFirstWriteError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		ring := 2*min(procs, maxFormatters) + 2
		for _, k := range []int{0, 10, 40 * chunkRows, 400 * chunkRows} {
			w := &failAfter{limit: k}
			generated, err := New(Config{Seed: 2, Invocations: 1 << 40}).writeCSV(w)
			if err != errDiskFull {
				t.Fatalf("GOMAXPROCS=%d, fail after %d bytes: err = %v, want the writer's", procs, k, err)
			}
			// No row is shorter than "0,x,0\n": k bytes hold at most k/6.
			if bound := k/6 + (ring+1)*chunkRows; generated > bound {
				t.Errorf("GOMAXPROCS=%d, fail after %d bytes: generated %d rows, bound %d", procs, k, generated, bound)
			}
			// WriteCSV has waited for each goroutine's last statement; the
			// runtime may take a moment more to retire it.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("GOMAXPROCS=%d, fail after %d bytes: %d goroutines before, %d after", procs, k, before, after)
			}
		}
	}
	if err := New(Config{}).WriteCSV(io.Discard); err == nil {
		t.Error("zero invocations accepted")
	}
}

// TestWriteCSVAllocatesTheRingNotTheTrace: ten times the rows, nothing more
// allocated — once a trace is longer than the ring (6 chunks of 4096 rows
// at two formatters), its length does not matter. A shorter trace allocates
// only the chunks it fills. The slack is for what the runtime allocates
// when a goroutine parks on a channel, which varies from run to run by a
// few hundred bytes; one chunk is 300 KiB.
func TestWriteCSVAllocatesTheRingNotTheTrace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	alloc := func(rows int) uint64 {
		s := New(Config{Seed: 1, Invocations: rows})
		s.NumKernels() // the name table is the Stream's, not the writer's
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(100_000) // warm: the runtime's own first-use allocations
	short, ring, long := alloc(10_000), alloc(100_000), alloc(1_000_000)
	if diff := int64(long) - int64(ring); diff > 8<<10 || diff < -8<<10 {
		t.Errorf("10⁵ rows allocate %d bytes, 10⁶ rows %d", ring, long)
	}
	if short > ring {
		t.Errorf("10⁴ rows allocate %d bytes, more than the full ring's %d", short, ring)
	}
	t.Logf("WriteCSV at GOMAXPROCS=2 allocates %d KiB (10⁴ rows: %d KiB)", ring>>10, short>>10)
}

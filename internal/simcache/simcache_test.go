package simcache

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stemroot/internal/gpu"
)

// testKey builds a key in a chosen shard (first byte selects the shard).
func testKey(shard, id byte) gpu.SegmentKey {
	var k gpu.SegmentKey
	k[0] = shard
	k[1] = id
	k[2] = id ^ 0xa5
	return k
}

func testResults(n int, base float64) []gpu.KernelResult {
	out := make([]gpu.KernelResult, n)
	for i := range out {
		out[i] = gpu.KernelResult{
			Cycles:       base + float64(i),
			Instructions: int64(1000 + i),
			L1HitRate:    0.5,
			L2HitRate:    0.25,
		}
	}
	return out
}

func sameResults(a, b []gpu.KernelResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMemoryHit(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1, 1)
	want := testResults(3, 100)
	computes := 0
	compute := func() ([]gpu.KernelResult, error) {
		computes++
		return want, nil
	}
	for i := 0; i < 3; i++ {
		got, err := c.GetOrCompute(key, compute)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(got, want) {
			t.Fatalf("call %d: wrong results", i)
		}
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	s := c.Stats()
	if s.Misses != 1 || s.MemHits != 2 || s.Hits != 2 || s.Entries != 1 {
		t.Fatalf("stats: %s", s)
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2, 1)
	boom := errors.New("boom")
	if _, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// A failed compute must not poison the key: the next call retries.
	want := testResults(2, 7)
	got, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return want, nil })
	if err != nil || !sameResults(got, want) {
		t.Fatalf("retry after error failed: %v", err)
	}
}

// TestLRUEviction fills one shard past its byte bound and checks the oldest
// entries fall out while recently used ones survive.
func TestLRUEviction(t *testing.T) {
	// maxShard = MaxBytes/16 = 600 bytes; each 4-result entry costs
	// 4*32+128 = 256 bytes, so a shard holds two entries and evicts on the
	// third.
	c, err := New(Options{MaxBytes: 16 * 600})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id byte) gpu.SegmentKey { return testKey(0, id) } // all in shard 0
	get := func(id byte) {
		t.Helper()
		if _, err := c.GetOrCompute(mk(id), func() ([]gpu.KernelResult, error) {
			return testResults(4, float64(id)), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get(1)
	get(2)
	get(1) // touch 1 so 2 becomes LRU
	get(3) // over bound: evicts 2
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1: %s", s.Evictions, s)
	}
	if s.Bytes > 600 {
		t.Fatalf("shard over bound: %s", s)
	}
	sh := c.shardFor(mk(1))
	if sh.items[mk(1)] == nil || sh.items[mk(3)] == nil {
		t.Fatal("recently used entries were evicted")
	}
	if sh.items[mk(2)] != nil {
		t.Fatal("LRU entry survived past the byte bound")
	}
	// The evicted entry recomputes (a miss), not an error.
	before := c.Stats().Misses
	get(2)
	if c.Stats().Misses != before+1 {
		t.Fatal("evicted entry did not recompute")
	}
}

// TestSingleflight launches many goroutines on one cold key; the compute
// function must run exactly once and every caller must share its result.
// Run under -race in CI.
func TestSingleflight(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3, 9)
	want := testResults(5, 42)

	var computes atomic.Int64
	release := make(chan struct{})
	const callers = 16
	var started sync.WaitGroup
	started.Add(1)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) {
				computes.Add(1)
				started.Done() // leader is inside compute; followers now pile up
				<-release
				return want, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if !sameResults(got, want) {
				t.Error("caller got wrong results")
			}
		}()
	}
	started.Wait()
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1: %s", s.Misses, s)
	}
	// Everyone but the leader either shared the in-flight call or hit the
	// freshly inserted entry, depending on arrival time; all are hits.
	if s.Hits != callers-1 {
		t.Fatalf("hits = %d, want %d: %s", s.Hits, callers-1, s)
	}
}

// TestSingleflightFailedLoad: the entry a failing leader published leaves the
// table — every follower that waited on it gets the leader's error, nothing is
// cached, and the key can be computed again.
func TestSingleflightFailedLoad(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, boom := testKey(5, 1), errors.New("boom")
	release := make(chan struct{})
	var started, wg sync.WaitGroup
	started.Add(1)
	var computes atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) {
				if computes.Add(1) == 1 {
					started.Done()
					<-release
				}
				return nil, boom
			})
			if err != boom {
				t.Errorf("caller got %v, want the load's error", err)
			}
		}()
	}
	started.Wait()
	close(release)
	wg.Wait()
	if s := c.Stats(); s.Entries != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("a failed load left something behind: %s", s)
	}
	got, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return testResults(2, 1), nil })
	if err != nil || !sameResults(got, testResults(2, 1)) {
		t.Fatalf("retry after a failed load: %v, %v", got, err)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := testKey(4, 4)
	want := testResults(6, 9.5)

	a, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	// A second cache (fresh process) must serve the key from disk without
	// computing.
	b, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.GetOrCompute(key, func() ([]gpu.KernelResult, error) {
		t.Fatal("compute ran despite a valid disk entry")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(got, want) {
		t.Fatal("disk round-trip changed the results")
	}
	s := b.Stats()
	if s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("stats: %s", s)
	}
}

// TestDiskCorruption damages the on-disk entry in several ways; every
// variant must silently degrade to a recompute (no error), count a disk
// error, and remove the bad file.
func TestDiskCorruption(t *testing.T) {
	key := testKey(5, 5)
	want := testResults(4, 3.25)
	good := EncodeEntry(key, want)

	corruptions := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)-10] },
		"bit-flip":     func(b []byte) []byte { b[diskHeaderSize] ^= 0x01; return b },
		"bad-magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"bad-version":  func(b []byte) []byte { b[4] = 0xff; return b },
		"foreign-key":  func(b []byte) []byte { b[8] ^= 0xff; return b }, // renamed file
		"insane-count": func(b []byte) []byte { b[47] = 0xff; return b },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			path := c.diskPath(key)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			buf := append([]byte(nil), good...)
			if err := os.WriteFile(path, corrupt(buf), 0o644); err != nil {
				t.Fatal(err)
			}

			got, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return want, nil })
			if err != nil {
				t.Fatalf("corrupt entry surfaced an error: %v", err)
			}
			if !sameResults(got, want) {
				t.Fatal("corrupt entry was trusted")
			}
			s := c.Stats()
			if s.DiskErrors != 1 || s.Misses != 1 || s.DiskHits != 0 {
				t.Fatalf("stats: %s", s)
			}
			// The write-back after recompute replaces the corrupt file with a
			// valid one.
			buf2, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("recompute did not rewrite the entry: %v", err)
			}
			if res, ok := DecodeEntry(key, buf2); !ok || !sameResults(res, want) {
				t.Fatal("rewritten entry is not valid")
			}
		})
	}
}

// plantEntry writes raw bytes where key's disk entry lives.
func plantEntry(t *testing.T, c *Cache, key gpu.SegmentKey, raw []byte) string {
	t.Helper()
	path := c.diskPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiskReadLargeEntry: an entry one result past the stack read buffer,
// and one several buffers long, round-trip through the grown buffer. (Entry
// lengths are 16 mod 32, buffer lengths 0 mod 32: none ends on a boundary.)
func TestDiskReadLargeEntry(t *testing.T) {
	for i, n := range []int{(diskReadBuf-diskHeaderSize-32)/resultWireSize + 1, 5 * diskReadBuf / resultWireSize} {
		dir := t.TempDir()
		key := testKey(6, byte(i))
		want := testResults(n, 0.5)
		a, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
		b, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.GetOrCompute(key, func() ([]gpu.KernelResult, error) {
			t.Fatalf("%d results: compute ran despite a valid disk entry", n)
			return nil, nil
		})
		if err != nil || !sameResults(got, want) {
			t.Fatalf("%d results: disk round-trip changed the results (%v)", n, err)
		}
		if s := b.Stats(); s.DiskHits != 1 || s.DiskErrors != 0 {
			t.Fatalf("%d results: stats: %s", n, s)
		}
	}
}

// TestDiskReadBadLength covers what only the file's length gives away: a
// truncated entry and one with bytes after its checksum, below and above the
// read buffer. Each is a miss, counted in DiskErrors, and removed.
func TestDiskReadBadLength(t *testing.T) {
	key := testKey(7, 7)
	small := EncodeEntry(key, testResults(4, 1))
	large := EncodeEntry(key, testResults(3*diskReadBuf/resultWireSize, 1))
	cases := map[string][]byte{
		"truncated":             small[:len(small)-1],
		"truncated-header":      small[:diskHeaderSize-3],
		"empty":                 {},
		"trailing":              append(append([]byte(nil), small...), 0),
		"trailing-to-buffer":    append(append([]byte(nil), small...), make([]byte, diskReadBuf-len(small))...),
		"trailing-past-buffer":  append(append([]byte(nil), small...), make([]byte, 2*diskReadBuf)...),
		"large-truncated":       large[:len(large)-1],
		"large-cut-at-buffer":   large[:diskReadBuf],
		"large-trailing":        append(append([]byte(nil), large...), 0),
		"large-trailing-a-page": append(append([]byte(nil), large...), make([]byte, 4096)...),
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			c, err := New(Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			path := plantEntry(t, c, key, raw)
			if _, ok := c.readDisk(key); ok {
				t.Fatal("served from a file of the wrong length")
			}
			if s := c.Stats(); s.DiskErrors != 1 {
				t.Fatalf("stats: %s", s)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("the bad file was not removed (stat: %v)", err)
			}
		})
	}
}

// TestDiskReadOversizedFile: a file past MaxEntryBytes is a miss that costs
// a bounded allocation, whatever its header says — an illegal count is never
// read past the stack buffer, and a legal count that the file outgrows stops
// one byte after the claim.
func TestDiskReadOversizedFile(t *testing.T) {
	key := testKey(8, 8)
	entry := EncodeEntry(key, testResults(4*diskReadBuf/resultWireSize, 2))
	lying := append([]byte(nil), entry...)
	binary.LittleEndian.PutUint64(lying[40:48], 1<<40) // claims 32 TiB of results
	for name, head := range map[string][]byte{"legal-claim": entry, "illegal-claim": lying, "no-header": nil} {
		t.Run(name, func(t *testing.T) {
			c, err := New(Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			path := plantEntry(t, c, key, head)
			if err := os.Truncate(path, MaxEntryBytes+4096); err != nil { // sparse: zeros past head
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, ok := c.readDisk(key)
			runtime.ReadMemStats(&after)
			if ok {
				t.Fatal("served from an oversized file")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(entry)) {
				t.Fatalf("reading a %d-byte file allocated %d bytes; the entry it could be is %d", MaxEntryBytes+4096, grew, len(entry))
			}
			if s := c.Stats(); s.DiskErrors != 1 {
				t.Fatalf("stats: %s", s)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("the oversized file was not removed (stat: %v)", err)
			}
		})
	}
}

// TestDiskHitAllocs pins a disk hit end to end: GetOrCompute allocates the
// entry the memory tier keeps and the decoded results, and nothing on the
// way — no path string, no call record or channel for the singleflight, no
// buffer sized to the file. (It was 8.5 objects: four of them path strings.)
func TestDiskHitAllocs(t *testing.T) {
	// One entry per shard: two keys of one shard evict each other, so every
	// lookup is a disk hit and the shard's table never grows.
	c, err := New(Options{Dir: t.TempDir(), MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := [2]gpu.SegmentKey{testKey(9, 9), testKey(9, 10)}
	for i, key := range keys {
		c.writeDisk(key, testResults(16, float64(i)))
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.GetOrCompute(keys[i%2], nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if s := c.Stats(); s.DiskHits != uint64(i) || s.Misses != 0 {
		t.Fatalf("not every lookup was a disk hit: %s", s)
	}
	want := 2.0
	if raceEnabled {
		want++ // the stack read buffer escapes through syscall.Read's race annotation
	}
	if allocs > want {
		t.Fatalf("a disk hit allocates %.0f objects, want the entry and its results", allocs)
	}
}

// TestDiskPathMatchesJoin pins the path a lookup builds in place against the
// definition it replaced, filepath.Join(dir, name[:2], name[2:]), for every
// spelling of the directory — so a cache directory written by any earlier
// build is found, and one written by this build is found by them.
func TestDiskPathMatchesJoin(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // the relative spellings land here
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	abs := t.TempDir()
	key := testKey(0xab, 0xcd)
	key[31] = 0x0f
	name := key.String()
	for _, dir := range []string{
		"rel", "./x", "x/", "a/../b", "a//b", ".", "./", "../" + filepath.Base(abs),
		abs, abs + "/", abs + "//sub/./", filepath.Join(abs, strings.Repeat("long/", 60)),
	} {
		c, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		want := filepath.Join(dir, name[:2], name[2:])
		if got := c.diskPath(key); got != want {
			t.Errorf("Dir %q: path %q, want %q", dir, got, want)
		}
		path := c.appendPath(nil, key)
		if last := len(path) - 1; path[last] != 0 || string(path[:last]) != want {
			t.Errorf("Dir %q: in-place path %q, want %q and a NUL", dir, path, want)
		}
		// And the file is where both say: written through the string, read
		// back through the bytes.
		c.writeDisk(key, testResults(3, 1))
		if got, ok := c.readDisk(key); !ok || !sameResults(got, testResults(3, 1)) {
			t.Errorf("Dir %q: entry written to %q was not read back", dir, want)
		}
	}
}

func TestUnboundedMemory(t *testing.T) {
	c, err := New(Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		id := byte(i)
		if _, err := c.GetOrCompute(testKey(0, id), func() ([]gpu.KernelResult, error) {
			return testResults(8, float64(i)), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions != 0 || s.Entries != 64 {
		t.Fatalf("unbounded cache evicted: %s", s)
	}
}

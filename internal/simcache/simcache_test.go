package simcache

import (
	"errors"
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

// TestFirstInsertsConcurrent: goroutines that make a fresh cache's first
// inserts at once share the one memory tier the first of them makes (run
// under -race). Four goroutines look up each of eight keys, two keys to a
// shard: every key is computed once, and Stats counts eight entries and
// their bytes. A tier made twice loses the entries of one of them: a few
// hundred rounds show it on two CPUs.
func TestFirstInsertsConcurrent(t *testing.T) {
	const keys, callers = 8, 4
	for round := 0; round < 1000; round++ {
		c, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		var computes [keys]atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < keys*callers; i++ {
			k := i % keys
			key, want := testKey(byte(k/2), byte(k)), testResults(1+k, float64(k))
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) {
					computes[k].Add(1)
					return want, nil
				})
				if err != nil || !sameResults(got, want) {
					t.Errorf("key %d: wrong results (%v)", k, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		var bytes int64
		for k := range computes {
			if n := computes[k].Load(); n != 1 {
				t.Fatalf("round %d: key %d computed %d times, want 1", round, k, n)
			}
			bytes += entryBytes(1 + k)
		}
		if s := c.Stats(); s.Entries != keys || s.Bytes != bytes || s.Misses != keys || s.Hits != keys*(callers-1) {
			t.Fatalf("round %d: stats %s, want %d entries of %d bytes", round, s, keys, bytes)
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

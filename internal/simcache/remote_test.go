package simcache

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"stemroot/internal/gpu"
)

// fakeRemote is an in-memory Remote for exercising the tier composition
// without a network.
type fakeRemote struct {
	mu      sync.Mutex
	store   map[gpu.SegmentKey][]gpu.KernelResult
	gets    []gpu.SegmentKey
	batches [][]gpu.SegmentKey
	puts    map[gpu.SegmentKey]int64 // key → costNs
}

func newFakeRemote() *fakeRemote {
	return &fakeRemote{
		store: make(map[gpu.SegmentKey][]gpu.KernelResult),
		puts:  make(map[gpu.SegmentKey]int64),
	}
}

func (f *fakeRemote) Get(key gpu.SegmentKey) ([]gpu.KernelResult, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets = append(f.gets, key)
	r, ok := f.store[key]
	return r, ok
}

func (f *fakeRemote) BatchGet(keys []gpu.SegmentKey) [][]gpu.KernelResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, append([]gpu.SegmentKey(nil), keys...))
	out := make([][]gpu.KernelResult, len(keys))
	for i, key := range keys {
		out[i] = f.store[key]
	}
	return out
}

func (f *fakeRemote) Put(key gpu.SegmentKey, results []gpu.KernelResult, costNs int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.store[key] = results
	f.puts[key] = costNs
}

func (f *fakeRemote) Stats() RemoteStats { return RemoteStats{} }

var _ Remote = (*fakeRemote)(nil)

func mustCache(t *testing.T, opts Options) *Cache {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var remoteResults = []gpu.KernelResult{{Cycles: 100, Instructions: 200, L1HitRate: 0.9, L2HitRate: 0.5}}

// TestRemoteTierOrder pins the lookup order memory → disk → remote →
// compute: a key present only remotely is served without computing, and
// lands in the memory tier (second access is a mem hit, no second remote
// Get).
func TestRemoteTierOrder(t *testing.T) {
	remote := newFakeRemote()
	key := gpu.SegmentKey{7}
	remote.store[key] = remoteResults
	c := mustCache(t, Options{Remote: remote})

	computed := false
	got, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) {
		computed = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computed {
		t.Fatal("computed a key the remote tier had")
	}
	if !reflect.DeepEqual(got, remoteResults) {
		t.Fatalf("got %+v", got)
	}
	if _, err := c.GetOrCompute(key, nil); err != nil {
		t.Fatal(err)
	}
	if len(remote.gets) != 1 {
		t.Fatalf("remote asked %d times, want 1 (memory tier should answer the repeat)", len(remote.gets))
	}
	s := c.Stats()
	if s.RemoteHits != 1 || s.MemHits != 1 || s.Misses != 0 {
		t.Fatalf("stats: %s", s)
	}
}

// TestRemoteWriteBack pins that a computed entry is replicated to the
// remote tier with a positive measured cost.
func TestRemoteWriteBack(t *testing.T) {
	remote := newFakeRemote()
	key := gpu.SegmentKey{8}
	c := mustCache(t, Options{Remote: remote})
	_, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return remoteResults, nil })
	if err != nil {
		t.Fatal(err)
	}
	cost, ok := remote.puts[key]
	if !ok {
		t.Fatal("computed entry not written back to the remote tier")
	}
	if cost <= 0 {
		t.Fatalf("write-back carried cost %d ns, want > 0", cost)
	}
}

// TestDiskBeforeRemote: a key on local disk never touches the wire.
func TestDiskBeforeRemote(t *testing.T) {
	remote := newFakeRemote()
	key := gpu.SegmentKey{9}
	dir := t.TempDir()
	seed := mustCache(t, Options{Dir: dir})
	if _, err := seed.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return remoteResults, nil }); err != nil {
		t.Fatal(err)
	}

	c := mustCache(t, Options{Dir: dir, Remote: remote})
	got, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) {
		t.Fatal("computed despite disk entry")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, remoteResults) {
		t.Fatalf("got %+v", got)
	}
	if len(remote.gets) != 0 {
		t.Fatal("remote consulted for a disk-resident key")
	}
}

// TestRemoteHitReplicatesToDisk: a remote hit is persisted locally so a
// later run on this machine survives a dead server warm.
func TestRemoteHitReplicatesToDisk(t *testing.T) {
	remote := newFakeRemote()
	key := gpu.SegmentKey{10}
	remote.store[key] = remoteResults
	dir := t.TempDir()
	c := mustCache(t, Options{Dir: dir, Remote: remote})
	if _, err := c.GetOrCompute(key, nil); err != nil {
		t.Fatal(err)
	}

	// Fresh cache, same dir, no remote: must hit disk.
	c2 := mustCache(t, Options{Dir: dir})
	if _, err := c2.GetOrCompute(key, func() ([]gpu.KernelResult, error) {
		t.Fatal("remote hit was not replicated to disk")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchSeedsMemory pins the batch path: Prefetch resolves announced
// keys in one BatchGet, the hits are served from memory afterwards, and
// the batch misses are remembered so the per-segment miss path skips the
// single-key round trip exactly once.
func TestPrefetchSeedsMemory(t *testing.T) {
	remote := newFakeRemote()
	hitKey, missKey := gpu.SegmentKey{11}, gpu.SegmentKey{12}
	remote.store[hitKey] = remoteResults
	c := mustCache(t, Options{Remote: remote})

	if !c.WantPrefetch() {
		t.Fatal("WantPrefetch false with a batching remote")
	}
	c.Prefetch([]gpu.SegmentKey{hitKey, missKey, hitKey}) // duplicate must collapse

	if len(remote.batches) != 1 {
		t.Fatalf("%d batch round trips, want 1", len(remote.batches))
	}
	if want := []gpu.SegmentKey{hitKey, missKey}; !reflect.DeepEqual(remote.batches[0], want) {
		t.Fatalf("batch carried %v, want %v (dedup)", remote.batches[0], want)
	}

	// Prefetched hit: answered from memory, no remote Get.
	got, err := c.GetOrCompute(hitKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, remoteResults) {
		t.Fatalf("got %+v", got)
	}
	// Prefetched miss: computed without a second remote lookup.
	computed := false
	if _, err := c.GetOrCompute(missKey, func() ([]gpu.KernelResult, error) {
		computed = true
		return remoteResults, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !computed {
		t.Fatal("prefetch-missed key not computed")
	}
	if len(remote.gets) != 0 {
		t.Fatalf("per-segment path issued %d remote Gets after a prefetch that already answered", len(remote.gets))
	}

	s := c.Stats()
	if s.Prefetches != 1 || s.PrefetchKeys != 2 || s.RemoteHits != 1 {
		t.Fatalf("stats: %s", s)
	}
}

// TestPrefetchMissConsumedOnce: the remembered batch miss is consumed by
// the first load, so a later lookup of the same key (when another client
// may have stored it) asks the server again.
func TestPrefetchMissConsumedOnce(t *testing.T) {
	remote := newFakeRemote()
	// Same first byte → same shard; with MaxBytes 1 the shard holds one
	// entry, so inserting evictor pushes key out of the memory tier.
	key, evictor := gpu.SegmentKey{13}, gpu.SegmentKey{13, 1}
	c := mustCache(t, Options{MaxBytes: 1, Remote: remote})

	c.Prefetch([]gpu.SegmentKey{key})
	if _, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return remoteResults, nil }); err != nil {
		t.Fatal(err)
	}
	if len(remote.gets) != 0 {
		t.Fatal("first load should have skipped the remote Get")
	}
	if _, err := c.GetOrCompute(evictor, func() ([]gpu.KernelResult, error) { return remoteResults, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return remoteResults, nil }); err != nil {
		t.Fatal(err)
	}
	keyGets := 0
	for _, k := range remote.gets {
		if k == key {
			keyGets++
		}
	}
	if keyGets != 1 {
		t.Fatalf("re-load after eviction issued %d remote Gets for the key, want 1 (miss memo must be consumed)", keyGets)
	}
}

// TestWantPrefetchOff: without a remote there is no round trip to save, so
// the up-front key derivation pass must not run.
func TestWantPrefetchOff(t *testing.T) {
	if c := mustCache(t, Options{}); c.WantPrefetch() {
		t.Fatal("WantPrefetch true without a remote")
	}
}

// TestStatsString pins the two-layer stats rendering: the base line keeps
// its historical format (CI greps it), and the remote block appears only
// when a remote tier is attached.
func TestStatsString(t *testing.T) {
	c := mustCache(t, Options{})
	if s := c.Stats().String(); !strings.HasPrefix(s, "hits=0 (mem") || strings.Contains(s, "remote:") {
		t.Fatalf("base stats line changed: %q", s)
	}
	cr := mustCache(t, Options{Remote: newFakeRemote()})
	s := cr.Stats().String()
	for _, want := range []string{" | remote: ", "prefetches=", "in_flight="} {
		if !strings.Contains(s, want) {
			t.Fatalf("remote stats block missing %q: %q", want, s)
		}
	}
}

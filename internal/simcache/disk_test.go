package simcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
)

// packScanBuf and packScanKeep, 64 KiB and 1 MiB, are page multiples, where
// a mapping's pages end; the damaged-record cases and FuzzLoadPack's seeds
// put records and damage across them.
const packScanBuf, packScanKeep = 64 << 10, 1 << 20

// writePack makes raw the pack of dir.
func writePack(t *testing.T, dir string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, packName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustNew(t *testing.T, opts Options) *Cache {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lookup gets key from c and reports whether it was served without
// computing; a computed lookup returns want.
func lookup(t *testing.T, c *Cache, key gpu.SegmentKey, want []gpu.KernelResult) (served bool) {
	t.Helper()
	served = true
	got, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) { served = false; return want, nil })
	if err != nil || !sameResults(got, want) {
		t.Fatalf("lookup %x: wrong results (%v)", key[:3], err)
	}
	withinBound(t, c)
	return served
}

// withinBound fails t unless every shard's ring holds at most its share of
// the byte bound plus its newest entry, the one the ring keeps even past the
// bound.
func withinBound(t *testing.T, c *Cache) {
	t.Helper()
	for i := range shardCount {
		sh := c.shardFor(gpu.SegmentKey{byte(i)})
		sh.mu.Lock()
		held, newest := sh.bytes, int64(0)
		if sh.head != nil {
			newest = entryBytes(len(sh.head.results))
		}
		sh.mu.Unlock()
		if c.maxShard >= 0 && held > c.maxShard+newest {
			t.Fatalf("shard %d holds %d bytes, bound %d plus its newest entry's %d", i, held, c.maxShard, newest)
		}
	}
}

// TestDiskRoundTrip: what one cache computes, a second cache over the same
// directory (a fresh process) serves from disk — for every spelling of the
// directory, relative ones resolved against the working directory.
func TestDiskRoundTrip(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // the relative spellings land here
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	abs := t.TempDir()
	for i, dir := range []string{
		"rel", "./x", "x/", "a/../b", "a//b", ".", "./", "../" + filepath.Base(abs),
		abs, abs + "/", abs + "//sub/./", filepath.Join(abs, strings.Repeat("long/", 60)),
	} {
		key, want := testKey(4, byte(i)), testResults(6, 9.5+float64(i))
		if lookup(t, mustNew(t, Options{Dir: dir}), key, want) {
			t.Fatalf("Dir %q: a fresh key was served", dir)
		}
		b := mustNew(t, Options{Dir: dir})
		if !lookup(t, b, key, want) {
			t.Fatalf("Dir %q: computed despite a valid disk entry", dir)
		}
		if s := b.Stats(); s.DiskHits != 1 || s.Misses != 0 || s.DiskErrors != 0 {
			t.Fatalf("Dir %q: stats: %s", dir, s)
		}
	}
}

// TestNewAllocs: New over an existing directory allocates the Cache and its
// pack path and nothing else (2 objects and 344 B, where there were 5 and
// 1,424 B): it makes no memory tier, which waits for the first insert, and
// stats nothing through os.Stat, whose FileInfo is a heap object. The
// figures are the fewest of ten calls.
func TestNewAllocs(t *testing.T) {
	t.Chdir(t.TempDir()) // a relative Dir: the path's length is the test's own
	if err := os.Mkdir("cache", 0o755); err != nil {
		t.Fatal(err)
	}
	objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for run := 0; run < 10; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := New(Options{Dir: "cache"})
		runtime.ReadMemStats(&after)
		if err != nil || c.tier.Load() != nil {
			t.Fatalf("New made a memory tier or failed: %v", err)
		}
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if raceEnabled {
		t.Skip("the race runtime's own allocations break the pin")
	}
	if maxObjects, maxBytes := uint64(2), uint64(344); objects > maxObjects || bytes > maxBytes {
		t.Errorf("New over an existing directory allocates %d objects and %d bytes, want at most %d and %d", objects, bytes, maxObjects, maxBytes)
	}
}

// TestNewRefusesAFile: a Dir that names a regular file, or a path through
// one, is an error, as it was when os.MkdirAll checked every directory.
func TestNewRefusesAFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{file, file + "/", filepath.Join(file, "sub")} {
		if _, err := New(Options{Dir: dir}); err == nil {
			t.Errorf("Dir %q: a cache over a regular file", dir)
		}
	}
}

// TestDiskWriteFailureIsCounted blocks the disk tier with a directory where
// the pack should be. The computed results still come back, and every
// dropped write is counted (and printed).
func TestDiskWriteFailureIsCounted(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, packName), 0o755); err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Options{Dir: dir})
	lookup(t, c, testKey(7, 7), testResults(3, 2.5))
	s := c.Stats()
	if s.DiskWriteErrors != 1 || s.Misses != 1 {
		t.Fatalf("stats: %s", s)
	}
	if !strings.Contains(s.String(), "disk_errors=0 disk_write_errors=1") {
		t.Fatalf("-cachestats line does not show the dropped write: %s", s)
	}
	lookup(t, c, testKey(7, 8), testResults(3, 2.5))
	if s := c.Stats(); s.DiskWriteErrors != 2 {
		t.Fatalf("the second dropped write was not counted: %s", s)
	}
}

// TestDiskCorruption damages a pack's only record in several ways; every
// variant must silently degrade to a recompute (no error) and count one
// damaged run. The recompute appends a good record, which the next cache
// finds past the damage.
func TestDiskCorruption(t *testing.T) {
	key := testKey(5, 5)
	want := testResults(4, 3.25)
	good := EncodeEntry(key, want)

	corruptions := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)-10] },
		"bit-flip":     func(b []byte) []byte { b[diskHeaderSize] ^= 0x01; return b },
		"bad-magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"bad-version":  func(b []byte) []byte { b[4] = 0xff; return b },
		"foreign-key":  func(b []byte) []byte { b[8] ^= 0xff; return b },
		"insane-count": func(b []byte) []byte { b[47] = 0xff; return b },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writePack(t, dir, corrupt(bytes.Clone(good)))
			c := mustNew(t, Options{Dir: dir})
			if lookup(t, c, key, want) {
				t.Fatal("corrupt record was trusted")
			}
			if s := c.Stats(); s.DiskErrors != 1 || s.Misses != 1 || s.DiskHits != 0 {
				t.Fatalf("stats: %s", s)
			}
			again := mustNew(t, Options{Dir: dir})
			if !lookup(t, again, key, want) {
				t.Fatal("the record appended after the damage was not found")
			}
			if s := again.Stats(); s.DiskErrors != 1 || s.DiskHits != 1 {
				t.Fatalf("stats: %s", s)
			}
		})
	}
}

// TestDiskReadResyncs: damage between records costs only the records it
// touches. Garbage, a bit-flipped record, valid records, garbage that ends
// with a record's magic cut by the scanner's first read, and a torn tail:
// the valid ones are served, and each damaged run is counted once.
func TestDiskReadResyncs(t *testing.T) {
	dir := t.TempDir()
	keys := [5]gpu.SegmentKey{testKey(1, 1), testKey(2, 2), testKey(3, 3), testKey(4, 4), testKey(5, 5)}
	rec := func(i int) []byte { return EncodeEntry(keys[i], testResults(i+1, float64(i))) }
	flipped := rec(1)
	flipped[diskHeaderSize+3] ^= 0x40
	var pack []byte
	pack = append(pack, rec(0)...)
	pack = append(pack, "SRSC and more garbage, with a magic in it"...)
	pack = append(pack, flipped...)
	pack = append(pack, rec(2)...)
	pack = append(pack, make([]byte, packScanBuf-2-len(pack))...)
	pack = append(pack, rec(3)...)                    // its magic straddles the first read
	pack = append(pack, rec(4)[:diskHeaderSize+5]...) // torn tail
	writePack(t, dir, pack)
	c := mustNew(t, Options{Dir: dir})
	for i, key := range keys {
		if served := lookup(t, c, key, testResults(i+1, float64(i))); served != (i != 1 && i != 4) {
			t.Errorf("record %d: served %v", i, served)
		}
	}
	if s := c.Stats(); s.DiskErrors != 3 || s.DiskHits != 3 || s.Misses != 2 {
		t.Fatalf("stats: %s", s)
	}
}

// TestDiskReadIgnoresFanOut: a directory in the one-file-per-entry layout
// holds no pack, so it reads as empty — no hit, no error — and the first run
// writes the pack.
func TestDiskReadIgnoresFanOut(t *testing.T) {
	dir := t.TempDir()
	key, want := testKey(0xab, 0xcd), testResults(3, 1)
	name := key.String()
	if err := os.MkdirAll(filepath.Join(dir, name[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name[:2], name[2:]), EncodeEntry(key, want), 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Options{Dir: dir})
	if lookup(t, c, key, want) {
		t.Fatal("served from the old layout")
	}
	if s := c.Stats(); s.DiskErrors != 0 || s.Misses != 1 {
		t.Fatalf("stats: %s", s)
	}
	if !lookup(t, mustNew(t, Options{Dir: dir}), key, want) {
		t.Fatal("the first run did not write the pack")
	}
}

// TestDiskReadLargeEntry: entries one result past a hit's stack buffer and
// past the read-back one, one several buffers long and one several pages
// long round-trip — through the mapped pack, and, with a byte bound that
// keeps nothing in memory, through the positioned read that brings back a
// record the ring let go of.
func TestDiskReadLargeEntry(t *testing.T) {
	for i, n := range []int{gpu.DefaultSegmentLen + 1, (diskReadBuf-diskHeaderSize-32)/resultWireSize + 1, 5 * diskReadBuf / resultWireSize, 3 * packScanBuf / resultWireSize} {
		dir := t.TempDir()
		key, other := testKey(6, byte(i)), testKey(6, byte(i)+100) // one shard
		want := testResults(n, 0.5)
		w := mustNew(t, Options{Dir: dir, MaxBytes: 1})
		lookup(t, w, key, want)
		lookup(t, w, other, testResults(1, 0)) // the ring lets key go
		if !lookup(t, w, key, want) {
			t.Fatalf("%d results: recomputed a record the ring let go of", n)
		}
		b := mustNew(t, Options{Dir: dir})
		if !lookup(t, b, key, want) {
			t.Fatalf("%d results: computed despite a valid disk entry", n)
		}
		for name, c := range map[string]*Cache{"writer": w, "reader": b} {
			if s := c.Stats(); s.DiskHits != 1 || s.DiskErrors != 0 {
				t.Fatalf("%d results, %s: stats: %s", n, name, s)
			}
		}
	}
}

// TestDiskReadBadLength covers what only a record's length gives away. A
// record cut short is never served and counts one damaged run; bytes past a
// whole record are a torn tail, counted without hiding the record before
// them — below and above the scanner's first buffer.
func TestDiskReadBadLength(t *testing.T) {
	key := testKey(7, 7)
	small, smallWant := EncodeEntry(key, testResults(4, 1)), testResults(4, 1)
	large, largeWant := EncodeEntry(key, testResults(3*packScanBuf/resultWireSize, 1)), testResults(3*packScanBuf/resultWireSize, 1)
	cases := map[string]struct {
		raw     []byte
		want    []gpu.KernelResult
		served  bool
		damaged uint64
	}{
		"truncated":             {small[:len(small)-1], smallWant, false, 1},
		"truncated-header":      {small[:diskHeaderSize-3], smallWant, false, 1},
		"empty":                 {nil, smallWant, false, 0},
		"trailing":              {append(bytes.Clone(small), 0), smallWant, true, 1},
		"trailing-to-buffer":    {append(bytes.Clone(small), make([]byte, packScanBuf-len(small))...), smallWant, true, 1},
		"trailing-past-buffer":  {append(bytes.Clone(small), make([]byte, 2*packScanBuf)...), smallWant, true, 1},
		"large-truncated":       {large[:len(large)-1], largeWant, false, 1},
		"large-cut-at-buffer":   {large[:packScanBuf], largeWant, false, 1},
		"large-trailing":        {append(bytes.Clone(large), 0), largeWant, true, 1},
		"large-trailing-a-page": {append(bytes.Clone(large), make([]byte, 4096)...), largeWant, true, 1},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writePack(t, dir, tc.raw)
			c := mustNew(t, Options{Dir: dir})
			if served := lookup(t, c, key, tc.want); served != tc.served {
				t.Fatalf("served %v, want %v", served, tc.served)
			}
			if s := c.Stats(); s.DiskErrors != tc.damaged {
				t.Fatalf("stats: %s", s)
			}
		})
	}
}

// TestDiskReadOversizedFile: a pack past MaxEntryBytes of garbage costs a
// bounded allocation, whatever its first header says — an illegal count is
// never read for, and a legal one is served and the garbage after it
// skipped without growing the scan buffer.
func TestDiskReadOversizedFile(t *testing.T) {
	key := testKey(8, 8)
	want := testResults(4*diskReadBuf/resultWireSize, 2)
	entry := EncodeEntry(key, want)
	lying := bytes.Clone(entry)
	binary.LittleEndian.PutUint64(lying[40:48], 1<<40) // claims 32 TiB of results
	for name, tc := range map[string]struct {
		head   []byte
		served bool
	}{"legal-claim": {entry, true}, "illegal-claim": {lying, false}, "no-header": {nil, false}} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writePack(t, dir, tc.head)
			if err := os.Truncate(filepath.Join(dir, packName), MaxEntryBytes+4096); err != nil { // sparse: zeros past head
				t.Fatal(err)
			}
			c := mustNew(t, Options{Dir: dir})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.packOnce.Do(c.loadPack)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(entry)+packScanBuf) {
				t.Fatalf("loading a %d-byte pack allocated %d bytes; the entry it could hold is %d", MaxEntryBytes+4096, grew, len(entry))
			}
			if served := lookup(t, c, key, want); served != tc.served {
				t.Fatalf("served %v, want %v", served, tc.served)
			}
			if s := c.Stats(); s.DiskErrors != 1 {
				t.Fatalf("stats: %s", s)
			}
		})
	}
}

// TestDiskSpill: the ring holds no more than MaxBytes, and a record it let go
// of — whether this cache wrote it or read it back — is read back from the
// pack, never recomputed. The pack's own records are served from the
// mapping, outside the bound.
func TestDiskSpill(t *testing.T) {
	dir := t.TempDir()
	const bound = 16 * 600 // a shard holds two 4-result entries (256 bytes each)
	keys := make([]gpu.SegmentKey, 6)
	for i := range keys {
		keys[i] = testKey(0, byte(i)) // all in shard 0
	}
	w := mustNew(t, Options{Dir: dir, MaxBytes: bound})
	for i, key := range keys[:5] {
		lookup(t, w, key, testResults(4, float64(i)))
	}
	if s := w.Stats(); s.Evictions != 3 || s.Bytes > 600 {
		t.Fatalf("writer stats: %s", s)
	}
	for i, key := range keys[:5] { // its own evicted writes, back from the pack
		if !lookup(t, w, key, testResults(4, float64(i))) {
			t.Fatalf("writer recomputed evicted entry %d", i)
		}
	}

	r := mustNew(t, Options{Dir: dir, MaxBytes: bound})
	r.packOnce.Do(r.loadPack)
	if s := r.Stats(); s.Entries != 5 || s.Bytes != 0 {
		t.Fatalf("load kept %s, want five rows and no bytes", s)
	}
	for round := 0; round < 2; round++ {
		for i, key := range keys[:5] {
			if !lookup(t, r, key, testResults(4, float64(i))) {
				t.Fatalf("round %d: recomputed entry %d", round, i)
			}
		}
	}
	more := []gpu.SegmentKey{keys[5], testKey(0, 6), testKey(0, 7)}
	for i, key := range more { // three misses append; the first is evicted
		lookup(t, r, key, testResults(4, float64(5+i)))
	}
	if !lookup(t, r, keys[5], testResults(4, 5)) {
		t.Fatal("recomputed an evicted entry this cache wrote")
	}
	if s := r.Stats(); s.Misses != 3 || s.DiskHits != 6 || s.Evictions != 2 || s.DiskErrors != 0 || s.Bytes > 600 {
		t.Fatalf("reader stats: %s", s)
	}
}

// TestDiskHitAllocs pins a read-back end to end: GetOrCompute allocates the
// entry the memory tier keeps and the decoded results, and nothing on the
// way — no path string, no call record or channel for the singleflight, no
// buffer sized to the record. The pack is empty when the cache first looks,
// and with a byte bound that keeps one entry, every lookup reads back the
// record the ring let go of at the one before.
func TestDiskHitAllocs(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir(), MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := [2]gpu.SegmentKey{testKey(9, 9), testKey(9, 10)}
	for i, key := range keys {
		lookup(t, c, key, testResults(16, float64(i)))
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.GetOrCompute(keys[i%2], nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if s := c.Stats(); s.DiskHits != uint64(i) || s.Misses != 2 {
		t.Fatalf("not every lookup was a disk hit: %s", s)
	}
	want := 2.0
	if raceEnabled {
		want++ // the stack read buffer escapes through syscall.Pread's race annotation
	}
	if allocs > want {
		t.Fatalf("a disk hit allocates %.0f objects, want the entry and its results", allocs)
	}
}

// TestPackLoadAllocs: a cache over a pack another cache indexed allocates
// its bits and nothing else — not the rows, not a hold on the mapping: one
// object for 10 records as for 2,000, at any byte bound, which does not
// cover the pack.
func TestPackLoadAllocs(t *testing.T) {
	for _, maxBytes := range []int64{0, 16 * 600} {
		var objects []uint64
		for _, records := range []int{10, 2000} {
			dir := t.TempDir()
			var pack []byte
			for i := 0; i < records; i++ {
				pack = append(pack, EncodeEntry(testKey(byte(i), byte(i>>8)), testResults(4, float64(i)))...)
			}
			writePack(t, dir, pack)
			got := uint64(math.MaxUint64)
			// Each cache holds the mapping the next one shares; the first
			// maps and indexes the pack.
			var held []*Cache
			for run := 0; run < 4; run++ {
				c := mustNew(t, Options{Dir: dir, MaxBytes: maxBytes})
				held = append(held, c)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				c.packOnce.Do(c.loadPack)
				runtime.ReadMemStats(&after)
				if run > 0 { // the fewest: another goroutine's allocation is not the load's
					got = min(got, after.Mallocs-before.Mallocs)
				}
				if s := c.Stats(); s.DiskErrors != 0 || s.Entries != records || s.Bytes != 0 {
					t.Fatalf("%d records: %s", records, s)
				}
			}
			runtime.KeepAlive(held)
			objects = append(objects, got)
		}
		if want := [2]uint64{1, 1}; [2]uint64(objects) != want {
			t.Fatalf("MaxBytes %d: loading 10 and 2,000 records allocates %v objects, want %v", maxBytes, objects, want)
		}
	}
}

// TestPackOtherEngine: a valid record keyed for the par engine serves the
// par-mode key, and the exact-mode key of the same specs misses it — a
// counted miss, through DecodeInto and GetOrCompute, and no damage.
func TestPackOtherEngine(t *testing.T) {
	specs := []kernelgen.Spec{{Name: "k", Blocks: 2, WarpsPerBlock: 4, InstrsPerWarp: 64}}
	par, _ := gpu.KeyForSegmentEngineAppend(nil, gpu.Baseline(), specs, gpu.Engine{Mode: gpu.EngineModePar})
	exact, _ := gpu.KeyForSegmentEngineAppend(nil, gpu.Baseline(), specs, gpu.Engine{Mode: gpu.EngineModeExact})
	if par == exact {
		t.Fatal("one key for both engines")
	}
	dir := t.TempDir()
	writePack(t, dir, EncodeEntry(par, testResults(1, 1)))
	c := mustNew(t, Options{Dir: dir})
	if !c.DecodeInto(par, make([]gpu.KernelResult, 1)) {
		t.Fatal("the par-mode record does not serve its own key")
	}
	if c.DecodeInto(exact, make([]gpu.KernelResult, 1)) {
		t.Fatal("the par-mode record served the exact-mode key")
	}
	if lookup(t, c, exact, testResults(1, 2)) {
		t.Fatal("the exact-mode key was served")
	}
	if s := c.Stats(); s.Misses != 1 || s.DiskHits != 1 || s.DiskErrors != 0 {
		t.Fatalf("stats: %s", s)
	}
}

// TestPackHeapCopy reruns the pack checks with mapping unavailable: the
// heap copy, the only path of the platforms that map nothing
// (diskread_other.go).
func TestPackHeapCopy(t *testing.T) {
	refused := 0
	defer func(f func(readHandle, int64) ([]byte, error)) { mapPackFile = f }(mapPackFile)
	mapPackFile = func(readHandle, int64) ([]byte, error) { refused++; return nil, errors.ErrUnsupported }
	for _, check := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"round-trip", TestDiskRoundTrip}, {"corruption", TestDiskCorruption}, {"resync", TestDiskReadResyncs},
		{"duplicate-key", TestPackDuplicateKey}, {"torn-tail", TestDiskReadBadLength},
	} {
		before := refused
		t.Run(check.name, check.run)
		if refused == before {
			t.Fatalf("%s: no load took the heap copy", check.name)
		}
	}
}

// TestPackDuplicateKey: a pack holding two records of one key serves the
// first and counts one entry, at every byte bound — also a pack that holds
// every key twice, as two cold processes started together leave it, whether
// the duplicates interleave or follow their first record. No pack record
// takes room in the ring.
func TestPackDuplicateKey(t *testing.T) {
	dir := t.TempDir()
	key, first, second := testKey(3, 1), testResults(4, 1), testResults(4, 2)
	other, otherResults := testKey(3, 2), testResults(4, 3) // same shard
	writePack(t, dir, slices.Concat(EncodeEntry(key, first), EncodeEntry(key, second), EncodeEntry(other, otherResults)))
	for _, maxBytes := range []int64{0, 1, 16 * 2 * entryBytes(4)} {
		c := mustNew(t, Options{Dir: dir, MaxBytes: maxBytes})
		c.packOnce.Do(c.loadPack)
		if s := c.Stats(); s.Entries != 2 || s.Bytes != 0 {
			t.Fatalf("MaxBytes %d: the load kept %s, want both distinct records and no bytes", maxBytes, s)
		}
		if !lookup(t, c, key, first) || !lookup(t, c, other, otherResults) {
			t.Fatalf("MaxBytes %d: computed a key the pack holds", maxBytes)
		}
		if s := c.Stats(); s.DiskHits != 2 || s.DiskErrors != 0 {
			t.Fatalf("MaxBytes %d: stats: %s", maxBytes, s)
		}
	}

	res := func(i int) []gpu.KernelResult { return testResults(4, float64(i)) }
	recs := make([][]byte, 3)
	for i := range recs {
		recs[i] = EncodeEntry(testKey(7, byte(i)), res(i)) // all in shard 7
	}
	for name, pack := range map[string][]byte{
		"interleaved": slices.Concat(recs[0], recs[1], recs[2], recs[0], recs[1], recs[2]),
		"adjacent":    slices.Concat(recs[0], recs[0], recs[1], recs[1], recs[2], recs[2]),
	} {
		dir := t.TempDir()
		writePack(t, dir, pack)
		c := mustNew(t, Options{Dir: dir, MaxBytes: 1})
		c.packOnce.Do(c.loadPack)
		if s := c.Stats(); s.Entries != 3 || s.Bytes != 0 || s.DiskErrors != 0 {
			t.Fatalf("%s: the load kept %s, want the three distinct records", name, s)
		}
		for use := 0; use < 2; use++ {
			for i := range recs {
				if !lookup(t, c, testKey(7, byte(i)), res(i)) {
					t.Fatalf("%s: computed record %d", name, i)
				}
			}
		}
		if s := c.Stats(); s.DiskHits != 3 || s.MemHits != 3 || s.Evictions != 0 || s.Entries != 3 {
			t.Fatalf("%s: stats: %s", name, s)
		}
	}
}

// TestPackRowsMakeRoomForAFailedWrite: an entry whose write failed has no
// record to be read back from, so the ring keeps it past the bound, and its
// second lookup is a memory hit, not a second simulation. The pack row
// beside it takes no room and is still served.
func TestPackRowsMakeRoomForAFailedWrite(t *testing.T) {
	dir := t.TempDir()
	pinned, big := testKey(0, 1), testKey(0, 2) // both in shard 0
	writePack(t, dir, EncodeEntry(pinned, testResults(4, 1)))
	c := mustNew(t, Options{Dir: dir, MaxBytes: 1})
	c.packOnce.Do(c.loadPack)
	ro, err := os.Open(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	c.pack = ro // every append fails
	for use := 0; use < 2; use++ {
		lookup(t, c, big, testResults(8, 2))
	}
	if s := c.Stats(); s.Misses != 1 || s.MemHits != 1 || s.DiskWriteErrors != 1 || s.Entries != 2 || s.Bytes != entryBytes(8) {
		t.Fatalf("stats: %s", s)
	}
	if !lookup(t, c, pinned, testResults(4, 1)) || c.Stats().DiskHits != 1 {
		t.Fatalf("the pack row was not served: %s", c.Stats())
	}
}

// TestPackFirstUseConcurrent: goroutines racing on the records of a loaded
// pack (run under -race) count exactly one disk hit per record, its first
// use, and memory hits for the rest.
func TestPackFirstUseConcurrent(t *testing.T) {
	dir := t.TempDir()
	keys := appendKeys()
	var pack []byte
	for j, key := range keys {
		pack = append(pack, EncodeEntry(key, testResults(1+j%7, float64(j)))...)
	}
	writePack(t, dir, pack)
	c := mustNew(t, Options{Dir: dir})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, key := range keys {
				got, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return nil, errors.New("computed") })
				if err != nil || !sameResults(got, testResults(1+j%7, float64(j))) {
					t.Errorf("key %d: %v", j, err)
				}
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); s.DiskHits != uint64(len(keys)) || s.MemHits != (workers-1)*uint64(len(keys)) || s.Misses != 0 {
		t.Fatalf("stats: %s", s)
	}
}

// TestPackReleaseConcurrent: readers decoding pack rows without a lock race
// writers whose fresh entries overflow the ring (run under -race). Every
// lookup returns its key's results, no pack record is recomputed or read
// back, no row is marked bad, and the ring ends within the bound plus the
// newest entry.
func TestPackReleaseConcurrent(t *testing.T) {
	dir := t.TempDir()
	res := func(id int) []gpu.KernelResult { return testResults(4, float64(id)) }
	var pack []byte
	for id := 0; id < 8; id++ {
		pack = append(pack, EncodeEntry(testKey(0, byte(id)), res(id))...) // all in shard 0
	}
	writePack(t, dir, pack)
	c := mustNew(t, Options{Dir: dir, MaxBytes: 16 * 2 * entryBytes(4)}) // two ring entries
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				id := (w*5 + round) % 8
				if w%2 == 1 {
					id = 8 + 2*round + w/2 // a fresh key: its entry overflows the ring
				}
				got, err := c.GetOrCompute(testKey(0, byte(id)), func() ([]gpu.KernelResult, error) {
					if id < 8 {
						return nil, errors.New("recomputed a pack record")
					}
					return res(id), nil
				})
				if err != nil || !sameResults(got, res(id)) {
					t.Errorf("key %d: %v", id, err)
				}
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); s.Misses != 200 || s.DiskHits != 8 || s.Evictions != 198 || s.DiskErrors != 0 {
		t.Fatalf("stats: %s", s)
	}
	withinBound(t, c)
	for id := 0; id < 8; id++ {
		if _, ok := c.fromPack(testKey(0, byte(id)), nil); !ok {
			t.Fatalf("pack row %d is no longer served", id)
		}
	}
}

// TestPackRowInUseIsNotReread: a pack row is served from the mapping however
// full the ring is. The pack holds A and B and the shard's share fits one
// entry: after A and B are used and C and D computed, a use of A is a memory
// hit, not a read-back.
func TestPackRowInUseIsNotReread(t *testing.T) {
	dir := t.TempDir()
	res := func(id int) []gpu.KernelResult { return testResults(4, float64(id)) }
	keys := make([]gpu.SegmentKey, 4) // A, B, C, D, all in shard 0
	for i := range keys {
		keys[i] = testKey(0, byte(i))
	}
	writePack(t, dir, slices.Concat(EncodeEntry(keys[0], res(0)), EncodeEntry(keys[1], res(1))))
	c := mustNew(t, Options{Dir: dir, MaxBytes: 16 * entryBytes(4)})
	for _, i := range []int{0, 1, 2, 3, 0} {
		lookup(t, c, keys[i], res(i))
	}
	if s := c.Stats(); s.DiskHits != 2 || s.MemHits != 1 || s.Misses != 2 || s.Evictions != 1 {
		t.Fatalf("stats: %s, want disk=2 mem=1 misses=2 evictions=1", s)
	}
}

// TestPackHitTakesNoLock: with every shard lock held elsewhere, a record the
// index holds is still served — first use and second — while one it does not
// hold waits for its shard.
func TestPackHitTakesNoLock(t *testing.T) {
	dir := t.TempDir()
	key, want := testKey(5, 5), testResults(3, 1)
	writePack(t, dir, EncodeEntry(key, want))
	c := mustNew(t, Options{Dir: dir})
	c.packOnce.Do(c.loadPack)
	for i := range shardCount {
		c.shardFor(gpu.SegmentKey{byte(i)}).mu.Lock()
	}
	served := make(chan bool)
	go func() {
		for use := 0; use < 2; use++ {
			got, err := c.GetOrCompute(key, func() ([]gpu.KernelResult, error) { return nil, nil })
			served <- err == nil && sameResults(got, want)
		}
		c.GetOrCompute(testKey(5, 6), func() ([]gpu.KernelResult, error) { return want, nil })
		close(served)
	}()
	for use := 0; use < 2; use++ {
		select {
		case ok := <-served:
			if !ok {
				t.Fatalf("use %d: wrong results", use)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("use %d: a pack hit waited for a shard lock", use)
		}
	}
	select {
	case <-served:
		t.Fatal("a key the pack does not hold was served past its locked shard")
	case <-time.After(10 * time.Millisecond):
	}
	for i := range shardCount {
		c.shardFor(gpu.SegmentKey{byte(i)}).mu.Unlock()
	}
	<-served
	if s := c.Stats(); s.DiskHits != 1 || s.MemHits != 1 || s.Misses != 1 {
		t.Fatalf("stats: %s", s)
	}
}

// appendAll looks up keys in the given order through c, computing what is
// missing; the results are a function of the key alone.
func appendAll(t *testing.T, c *Cache, keys []gpu.SegmentKey, reverse bool) {
	for i := range keys {
		j := i
		if reverse {
			j = len(keys) - 1 - i
		}
		lookup(t, c, keys[j], testResults(1+j%7, float64(j)))
	}
}

func appendKeys() []gpu.SegmentKey {
	keys := make([]gpu.SegmentKey, 64)
	for i := range keys {
		keys[i] = testKey(byte(i), byte(i*7))
	}
	return keys
}

// checkPackWhole: a fresh cache over dir serves every key with no damage.
func checkPackWhole(t *testing.T, dir string, keys []gpu.SegmentKey) {
	t.Helper()
	c := mustNew(t, Options{Dir: dir})
	for j, key := range keys {
		if !lookup(t, c, key, testResults(1+j%7, float64(j))) {
			t.Fatalf("key %d was not on disk", j)
		}
	}
	if s := c.Stats(); s.DiskErrors != 0 || s.DiskHits != uint64(len(keys)) {
		t.Fatalf("stats: %s", s)
	}
}

// TestDiskAppendConcurrent: two caches over one directory, each with two
// workers, append at once (run under -race). No record is torn by another.
func TestDiskAppendConcurrent(t *testing.T) {
	dir := t.TempDir()
	keys := appendKeys()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		c := mustNew(t, Options{Dir: dir})
		for _, reverse := range []bool{false, true} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				appendAll(t, c, keys, reverse)
			}()
		}
	}
	wg.Wait()
	checkPackWhole(t, dir, keys)
}

// TestDiskAppendAcrossProcesses: the same, from two processes — this test
// binary re-executed twice, appending at once.
func TestDiskAppendAcrossProcesses(t *testing.T) {
	keys := appendKeys()
	if dir := os.Getenv("SIMCACHE_APPEND_DIR"); dir != "" {
		appendAll(t, mustNew(t, Options{Dir: dir}), keys, os.Getenv("SIMCACHE_APPEND_REVERSE") == "1")
		return
	}
	dir := t.TempDir()
	var cmds []*exec.Cmd
	var outs []*bytes.Buffer
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDiskAppendAcrossProcesses$", "-test.count=1")
		cmd.Env = append(os.Environ(), "SIMCACHE_APPEND_DIR="+dir, "SIMCACHE_APPEND_REVERSE="+strconv.Itoa(i))
		out := new(bytes.Buffer)
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds, outs = append(cmds, cmd), append(outs, out)
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("writer %d: %v\n%s", i, err, outs[i])
		}
	}
	checkPackWhole(t, dir, keys)
}

// TestDecodeIntoConcurrent: goroutines decoding pack records straight into
// their own slices (run under -race) get, bit for bit, what GetOrCompute
// serves; each record's first use is its one disk hit. A slice of the wrong
// length and a key the pack lacks are left to GetOrCompute, uncounted.
func TestDecodeIntoConcurrent(t *testing.T) {
	dir := t.TempDir()
	keys := appendKeys()
	var pack []byte
	for j, key := range keys {
		pack = append(pack, EncodeEntry(key, testResults(1+j%7, float64(j)))...)
	}
	writePack(t, dir, pack)
	ref := mustNew(t, Options{Dir: dir})
	want := make([][]gpu.KernelResult, len(keys))
	for j, key := range keys {
		var err error
		if want[j], err = ref.GetOrCompute(key, nil); err != nil || len(want[j]) != 1+j%7 {
			t.Fatalf("key %d: %v, %d results", j, err, len(want[j]))
		}
	}
	c := mustNew(t, Options{Dir: dir})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, key := range keys {
				dst := make([]gpu.KernelResult, len(want[j]))
				if !c.DecodeInto(key, dst) || !sameResults(dst, want[j]) {
					t.Errorf("key %d: decoded %v, want %v", j, dst, want[j])
				}
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.DiskHits != uint64(len(keys)) || s.MemHits != (workers-1)*uint64(len(keys)) || s.Misses != 0 || s.DiskErrors != 0 {
		t.Fatalf("stats: %s", s)
	}
	if c.DecodeInto(keys[0], make([]gpu.KernelResult, len(want[0])+1)) || c.DecodeInto(testKey(200, 1), make([]gpu.KernelResult, 1)) {
		t.Fatal("decoded into a slice of the wrong length, or a key the pack lacks")
	}
	if after := c.Stats(); after != s {
		t.Fatalf("a refused decode was counted: %s, was %s", after, s)
	}
}

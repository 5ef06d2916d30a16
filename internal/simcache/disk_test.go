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
)

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
	return served
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

// TestDiskReadLargeEntry: an entry one result past the stack read buffer,
// one several buffers long and one past the pack scanner's first buffer
// round-trip — through the load and, with a byte bound that keeps nothing
// in memory, through the positioned read that brings back a spilled record.
// (Entry lengths are 16 mod 32, buffer lengths 0 mod 32: none ends on a
// boundary.)
func TestDiskReadLargeEntry(t *testing.T) {
	for i, n := range []int{(diskReadBuf-diskHeaderSize-32)/resultWireSize + 1, 5 * diskReadBuf / resultWireSize, 3 * packScanBuf / resultWireSize} {
		dir := t.TempDir()
		key := testKey(6, byte(i))
		want := testResults(n, 0.5)
		lookup(t, mustNew(t, Options{Dir: dir}), key, want)
		for _, maxBytes := range []int64{0, 1} {
			b := mustNew(t, Options{Dir: dir, MaxBytes: maxBytes})
			if !lookup(t, b, key, want) {
				t.Fatalf("%d results, MaxBytes %d: computed despite a valid disk entry", n, maxBytes)
			}
			if s := b.Stats(); s.DiskHits != 1 || s.DiskErrors != 0 {
				t.Fatalf("%d results, MaxBytes %d: stats: %s", n, maxBytes, s)
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

// TestDiskSpill: the memory tier holds no more than MaxBytes — the pack
// rows resident at load and the ring together — and a record it let go of —
// an index-only row past the bound, or an entry evicted since, whether it
// was read back or written by this cache — is read back from the pack, never
// recomputed.
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
	indexOnly := 0
	for _, row := range r.index.rows {
		if row.off < 0 {
			indexOnly++
		}
	}
	if s := r.Stats(); s.Entries != 2 || s.Bytes > 600 || indexOnly != 3 {
		t.Fatalf("load kept %s and left %d rows index-only", s, indexOnly)
	}
	for round := 0; round < 2; round++ {
		for i, key := range keys[:5] {
			if !lookup(t, r, key, testResults(4, float64(i))) {
				t.Fatalf("round %d: recomputed entry %d", round, i)
			}
		}
	}
	lookup(t, r, keys[5], testResults(4, 5)) // a miss appends, then is evicted
	for i := 0; i < 4; i++ {
		lookup(t, r, keys[i], testResults(4, float64(i)))
	}
	if !lookup(t, r, keys[5], testResults(4, 5)) {
		t.Fatal("recomputed an evicted entry this cache wrote")
	}
	if s := r.Stats(); s.Misses != 1 || s.DiskErrors != 0 || s.Bytes > 600 {
		t.Fatalf("reader stats: %s", s)
	}
}

// TestDiskHitAllocs pins a disk hit end to end: GetOrCompute allocates the
// entry the memory tier keeps and the decoded results, and nothing on the
// way — no path string, no call record or channel for the singleflight, no
// buffer sized to the record. With a byte bound that keeps nothing in
// memory, every lookup is the positioned read of a spilled record.
func TestDiskHitAllocs(t *testing.T) {
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
		want++ // the stack read buffer escapes through syscall.Pread's race annotation
	}
	if allocs > want {
		t.Fatalf("a disk hit allocates %.0f objects, want the entry and its results", allocs)
	}
}

// TestPackLoadAllocs: a pack load allocates the index — its rows, its
// results block and its first-use bits — and nothing per record, once the
// shared scan buffer and scratch have grown: the same three objects for 10
// records as for 2,000, at the default bound and at one that leaves all but
// 32 of the 2,000 index-only.
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
			for run := 0; run < 4; run++ { // the first grows the shared scratch
				c := mustNew(t, Options{Dir: dir, MaxBytes: maxBytes})
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				c.packOnce.Do(c.loadPack)
				runtime.ReadMemStats(&after)
				if run > 0 { // the fewest: another goroutine's allocation is not the load's
					got = min(got, after.Mallocs-before.Mallocs)
				}
				if s := c.Stats(); s.DiskErrors != 0 || (maxBytes == 0 && s.Entries != records) {
					t.Fatalf("%d records: %s", records, s)
				}
			}
			objects = append(objects, got)
		}
		if objects[0] != objects[1] || objects[1] > 3 {
			t.Fatalf("MaxBytes %d: loading 10 and 2,000 records allocates %v objects, want the index's three for both", maxBytes, objects)
		}
	}
}

// TestPackDuplicateKey: a pack holding two records of one key serves the
// first, whether the index keeps it resident or reads it back from its
// offset, and counts one entry. The second record takes no room: at a bound
// that fits exactly the distinct records, all of them are resident.
func TestPackDuplicateKey(t *testing.T) {
	dir := t.TempDir()
	key, first, second := testKey(3, 1), testResults(4, 1), testResults(4, 2)
	other, otherResults := testKey(3, 2), testResults(4, 3) // same shard
	writePack(t, dir, slices.Concat(EncodeEntry(key, first), EncodeEntry(key, second), EncodeEntry(other, otherResults)))
	for _, maxBytes := range []int64{0, 1, 16 * 2 * entryBytes(4)} {
		c := mustNew(t, Options{Dir: dir, MaxBytes: maxBytes})
		c.packOnce.Do(c.loadPack)
		if s := c.Stats(); maxBytes != 1 && (s.Entries != 2 || s.Bytes != 2*entryBytes(4)) {
			t.Fatalf("MaxBytes %d: the load kept %s, want both distinct records resident", maxBytes, s)
		}
		if !lookup(t, c, key, first) || !lookup(t, c, other, otherResults) {
			t.Fatalf("MaxBytes %d: computed a key the pack holds", maxBytes)
		}
		if s := c.Stats(); s.DiskHits != 2 || s.DiskErrors != 0 {
			t.Fatalf("MaxBytes %d: stats: %s", maxBytes, s)
		}
	}
}

// TestPackRowsLeaveByUse: resident pack rows make room for what the cache
// computes or reads back, the never used first, and what leaves is read
// back, never recomputed. A pack whose oldest records are never asked for
// (an old engine's, say) therefore does not hold the bound: a live record
// past it is read back once and then served from memory.
func TestPackRowsLeaveByUse(t *testing.T) {
	const bound = 16 * 600 // a shard holds two 4-result entries
	res := func(i int) []gpu.KernelResult { return testResults(4, float64(i)) }
	keys := make([]gpu.SegmentKey, 5)
	var pack []byte
	for i := range keys {
		keys[i] = testKey(0, byte(i)) // all in shard 0
		if i < 4 {
			pack = append(pack, EncodeEntry(keys[i], res(i))...)
		}
	}

	dir := t.TempDir()
	writePack(t, dir, pack[:2*recordSize(4)])
	c := mustNew(t, Options{Dir: dir, MaxBytes: bound})
	lookup(t, c, keys[1], res(1))
	lookup(t, c, keys[4], res(4)) // computed: the never used keys[0] leaves
	if x := &c.index; x.resident(x.find(keys[0])) || !x.resident(x.find(keys[1])) {
		t.Fatal("the byte bound let go of a used row before a never used one")
	}
	if s := c.Stats(); s.Entries != 2 || s.Bytes > 600 || s.Evictions != 1 {
		t.Fatalf("after the miss: %s", s)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 2; i++ {
			if !lookup(t, c, keys[i], res(i)) {
				t.Fatalf("round %d: recomputed pack record %d", round, i)
			}
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Bytes > 600 || s.DiskErrors != 0 {
		t.Fatalf("after the read-backs: %s", s)
	}

	// keys[0] and keys[1] never asked for: resident at load, and let go of
	// for keys[2] and keys[3], which are read back once.
	dir = t.TempDir()
	writePack(t, dir, pack)
	c = mustNew(t, Options{Dir: dir, MaxBytes: bound})
	for round := 0; round < 2; round++ {
		for i := 2; i < 4; i++ {
			if !lookup(t, c, keys[i], res(i)) {
				t.Fatalf("round %d: recomputed pack record %d", round, i)
			}
		}
	}
	if s := c.Stats(); s.DiskHits != 2 || s.MemHits != 2 || s.Evictions != 2 || s.Entries != 2 {
		t.Fatalf("live records past the bound: %s", s)
	}
}

// TestPackRowsMakeRoomForAFailedWrite: an entry whose write failed has no
// record to be read back from, so the memory tier keeps it whatever the pack
// rows resident beside it — past the bound if it must — and its second
// lookup is a memory hit, not a second simulation.
func TestPackRowsMakeRoomForAFailedWrite(t *testing.T) {
	dir := t.TempDir()
	pinned, big := testKey(0, 1), testKey(0, 2) // both in shard 0
	writePack(t, dir, EncodeEntry(pinned, testResults(4, 1)))
	c := mustNew(t, Options{Dir: dir, MaxBytes: 16 * 300}) // one 4-result entry per shard
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
	if s := c.Stats(); s.Misses != 1 || s.MemHits != 1 || s.DiskWriteErrors != 1 || s.Entries != 1 {
		t.Fatalf("stats: %s", s)
	}
	if !lookup(t, c, pinned, testResults(4, 1)) {
		t.Fatal("recomputed the pack row let go of")
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

// TestPackReleaseConcurrent: readers serving resident pack rows without a
// lock race writers whose fresh entries make the byte bound release those
// rows (run under -race). Every lookup returns its key's results, no pack
// record is recomputed, and the memory tier ends within the bound.
func TestPackReleaseConcurrent(t *testing.T) {
	dir := t.TempDir()
	res := func(id int) []gpu.KernelResult { return testResults(4, float64(id)) }
	var pack []byte
	for id := 0; id < 8; id++ {
		pack = append(pack, EncodeEntry(testKey(0, byte(id)), res(id))...) // all in shard 0
	}
	writePack(t, dir, pack)
	c := mustNew(t, Options{Dir: dir, MaxBytes: 16 * 8 * entryBytes(4)}) // all eight resident
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				id := (w*5 + round) % 8
				if w%2 == 1 {
					id = 8 + 2*round + w/2 // a fresh key: its entry releases a row
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
	if s := c.Stats(); s.Misses != 200 || s.DiskErrors != 0 || s.Bytes > 8*entryBytes(4) {
		t.Fatalf("stats: %s", s)
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
	for i := range c.shards {
		c.shards[i].mu.Lock()
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
	for i := range c.shards {
		c.shards[i].mu.Unlock()
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

package simcache

import (
	"bytes"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"stemroot/internal/gpu"
)

// TestDiskWriteSizeLimit fills a real limit under the disk tier: a child
// process (this test binary, re-executed) appends five records under an
// RLIMIT_FSIZE that ends ten bytes into the fourth, with SIGXFSZ ignored.
// The fourth append is torn and fails, the fifth fails whole; both are
// counted in DiskWriteErrors, and every earlier record stays readable.
func TestDiskWriteSizeLimit(t *testing.T) {
	size := int64(recordSize(4))
	limit := 3*size + 10
	if dir := os.Getenv("SIMCACHE_FSIZE_DIR"); dir != "" {
		signal.Ignore(syscall.SIGXFSZ)
		var rl syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &rl); err != nil {
			t.Fatal(err)
		}
		rl.Cur = uint64(limit)
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &rl); err != nil {
			t.Fatal(err)
		}
		c := mustNew(t, Options{Dir: dir})
		for i := 0; i < 5; i++ {
			lookup(t, c, testKey(1, byte(i)), testResults(4, float64(i)))
		}
		if s := c.Stats(); s.DiskWriteErrors != 2 || s.Misses != 5 {
			t.Fatalf("stats under the limit: %s", s)
		}
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDiskWriteSizeLimit$", "-test.count=1")
	cmd.Env = append(os.Environ(), "SIMCACHE_FSIZE_DIR="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("writer under RLIMIT_FSIZE=%d: %v\n%s", limit, err, &out)
	}
	if fi, err := os.Stat(filepath.Join(dir, packName)); err != nil || fi.Size() != limit {
		t.Fatalf("pack after the limit: %v, %v; want %d bytes", fi, err, limit)
	}
	c := mustNew(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if served := lookup(t, c, testKey(1, byte(i)), testResults(4, float64(i))); served != (i < 3) {
			t.Errorf("record %d: served %v", i, served)
		}
	}
	if s := c.Stats(); s.DiskErrors != 1 || s.DiskHits != 3 {
		t.Fatalf("stats reading the limited pack: %s", s)
	}
}

// TestPackTruncatedWhileMapped: a pack cut to nothing under a cache that
// mapped it. The next use of a record 118 KB in — decoded into a window, as
// the runner asks, then through GetOrCompute — is a counted miss and then
// computed, not a SIGBUS; its second use is a memory hit. Another record
// past the new end fails the same way.
func TestPackTruncatedWhileMapped(t *testing.T) {
	dir := t.TempDir()
	keys := make([]gpu.SegmentKey, 200) // 200 records of 592 bytes
	var pack []byte
	for i := range keys {
		keys[i] = testKey(byte(i), byte(i>>8))
		pack = append(pack, EncodeEntry(keys[i], testResults(16, float64(i)))...)
	}
	writePack(t, dir, pack)
	c := mustNew(t, Options{Dir: dir})
	c.packOnce.Do(c.loadPack)
	if !mapped(c) {
		t.Fatal("the pack was not mapped")
	}
	if err := os.Truncate(filepath.Join(dir, packName), 0); err != nil {
		t.Fatal(err)
	}
	last := len(keys) - 1
	if c.DecodeInto(keys[last], make([]gpu.KernelResult, 16)) {
		t.Fatal("decoded a record of a truncated pack")
	}
	for use := 0; use < 2; use++ {
		if served := lookup(t, c, keys[last], testResults(16, float64(last))); served != (use == 1) {
			t.Fatalf("use %d: served %v", use, served)
		}
	}
	if lookup(t, c, keys[last-1], testResults(16, float64(last-1))) {
		t.Fatal("served a record past the truncated end")
	}
	if s := c.Stats(); s.DiskErrors != 2 || s.Misses != 2 || s.MemHits != 1 || s.DiskHits != 0 {
		t.Fatalf("stats: %s", s)
	}
}

// TestPackRecordChangedAfterLoad: a record whose bytes change in the file
// after the load is never served. Its next use counts one disk error and is
// computed, and its later uses are memory hits; the records beside it are
// served from the pack throughout.
func TestPackRecordChangedAfterLoad(t *testing.T) {
	res := func(i int) []gpu.KernelResult { return testResults(4, float64(i)) }
	keys := make([]gpu.SegmentKey, 4)
	var pack []byte
	for i := range keys {
		keys[i] = testKey(0, byte(i))
		pack = append(pack, EncodeEntry(keys[i], res(i))...)
	}
	dir := t.TempDir()
	writePack(t, dir, pack)
	c := mustNew(t, Options{Dir: dir})
	c.packOnce.Do(c.loadPack)
	f, err := os.OpenFile(filepath.Join(dir, packName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // flip a payload bit of keys[0] and keys[1] in place
		off := int64(i*recordSize(4) + diskHeaderSize)
		if _, err := f.WriteAt([]byte{pack[off] ^ 1}, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := range keys {
			if served := lookup(t, c, keys[i], res(i)); served != (i >= 2 || round > 0) {
				t.Fatalf("round %d, record %d: served %v", round, i, served)
			}
		}
	}
	if s := c.Stats(); s.DiskErrors != 2 || s.Misses != 2 || s.DiskHits != 2 || s.MemHits != 8 || s.Entries != 6 {
		t.Fatalf("stats: %s", s)
	}
}

// TestPackMappingShared: caches over one version of a pack share one
// mapping of it and one index. A grown pack, and one rewritten in place at
// the same size, is another version: the next cache maps and indexes it
// afresh, and the caches before it keep theirs. Once every cache is
// collected the process maps nothing of the file and registers nothing.
func TestPackMappingShared(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, packName)
	writePack(t, dir, EncodeEntry(testKey(1, 1), testResults(4, 1)))
	load := func() *Cache {
		c := mustNew(t, Options{Dir: dir})
		c.packOnce.Do(c.loadPack)
		if !mapped(c) {
			t.Fatal("the pack was not mapped")
		}
		return c
	}
	a, b := load(), load()
	short := a.index
	if b.index != short || len(short.rows) != 1 {
		t.Fatal("two caches over one pack map or index it twice")
	}
	if &a.used[0] == &b.used[0] {
		t.Fatal("two caches share their bits")
	}

	lookup(t, a, testKey(1, 2), testResults(4, 2)) // the pack grows by a record
	c := load()
	grown := c.index
	if grown == short || len(grown.data) != 2*recordSize(4) || len(grown.rows) != 2 || len(short.data) != recordSize(4) || b.index != short {
		t.Fatalf("after the pack grew: mappings of %d and %d bytes", len(short.data), len(grown.data))
	}
	if !lookup(t, c, testKey(1, 2), testResults(4, 2)) {
		t.Fatal("the grown pack's mapping does not serve the appended record")
	}

	// The same size, other records. The modification time is set, as a
	// filesystem's clock may not tick between two writes.
	writePack(t, dir, slices.Concat(EncodeEntry(testKey(1, 3), testResults(4, 3)), EncodeEntry(testKey(1, 4), testResults(4, 4))))
	if err := os.Chtimes(path, time.Time{}, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	d := load()
	rewritten := d.index
	if rewritten == grown || rewritten == short || c.index != grown || a.index != short {
		t.Fatal("a rewritten pack shares an earlier mapping, or an earlier cache lost its own")
	}
	if !lookup(t, d, testKey(1, 3), testResults(4, 3)) || lookup(t, d, testKey(1, 1), testResults(4, 1)) {
		t.Fatal("the rewritten pack's mapping does not serve its own records")
	}
	if n := mappings(t, path); n != 3 {
		t.Fatalf("the process maps the pack %d times, want 3", n)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	file, _, err := statFile(int(f.Fd()))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, d = nil, nil, nil, nil
	short, grown, rewritten = nil, nil, nil
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		registered := 0
		packMaps.Lock()
		for id := range packMaps.m {
			if id.dev == file.dev && id.ino == file.ino {
				registered++
			}
		}
		packMaps.Unlock()
		if registered == 0 && mappings(t, path) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("every cache collected: %d mappings registered, %d of the file left", registered, mappings(t, path))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPackIndexBuiltOnce: caches loading one pack at once (run under
// -race) share one index, built by one scan: each counts the pack's one
// damaged run once, and serves its records.
func TestPackIndexBuiltOnce(t *testing.T) {
	dir := t.TempDir()
	keys := appendKeys()
	pack := []byte("damage before the records")
	for j, key := range keys {
		pack = append(pack, EncodeEntry(key, testResults(1+j%7, float64(j)))...)
	}
	writePack(t, dir, pack)
	caches := make([]*Cache, 8)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range caches {
		caches[i] = mustNew(t, Options{Dir: dir})
		wg.Add(1)
		go func(c *Cache) {
			defer wg.Done()
			start.Wait()
			c.packOnce.Do(c.loadPack)
		}(caches[i])
	}
	start.Done()
	wg.Wait()
	for i, c := range caches {
		if !mapped(c) || c.index != caches[0].index {
			t.Fatalf("cache %d: its own index, or none", i)
		}
		if s := c.Stats(); s.DiskErrors != 1 || s.Entries != len(keys) {
			t.Fatalf("cache %d: %s", i, s)
		}
	}
	for j, key := range keys {
		if !lookup(t, caches[j%len(caches)], key, testResults(1+j%7, float64(j))) {
			t.Fatalf("key %d was not served", j)
		}
	}
}

// mapped reports whether c's pack index lies over a registered mapping.
func mapped(c *Cache) bool {
	packMaps.Lock()
	defer packMaps.Unlock()
	for _, w := range packMaps.m {
		if m := w.Value(); m != nil && m == c.index {
			return true
		}
	}
	return false
}

// mappings counts the process's mappings of the file at path.
func mappings(t *testing.T, path string) int {
	t.Helper()
	path, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.HasSuffix(line, " "+path) {
			n++
		}
	}
	return n
}

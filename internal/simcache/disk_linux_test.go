package simcache

import (
	"bytes"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
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
	if c.index.ref == nil {
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

// TestPackMappingShared: caches over one directory share one mapping of its
// pack. A cache that loads after the pack grew maps the longer prefix and
// makes it current, while the caches before it keep theirs; each mapping
// leaves the process once every cache holding it is collected.
func TestPackMappingShared(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, packName)
	writePack(t, dir, EncodeEntry(testKey(1, 1), testResults(4, 1)))
	load := func() *Cache {
		c := mustNew(t, Options{Dir: dir})
		c.packOnce.Do(c.loadPack)
		if c.index.ref == nil {
			t.Fatal("the pack was not mapped")
		}
		return c
	}
	a, b := load(), load()
	short := a.index.ref.m
	if b.index.ref.m != short {
		t.Fatal("two caches over one pack map it twice")
	}
	lookup(t, a, testKey(1, 2), testResults(4, 2)) // the pack grows by a record
	c := load()
	long := c.index.ref.m
	if long == short || len(long.data) != 2*recordSize(4) || len(short.data) != recordSize(4) || b.index.ref.m != short {
		t.Fatalf("after the pack grew: mappings of %d and %d bytes", len(short.data), len(long.data))
	}
	if !lookup(t, c, testKey(1, 2), testResults(4, 2)) {
		t.Fatal("the longer mapping does not serve the appended record")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := statFile(int(f.Fd()))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	packMaps.Lock()
	cur, refs := packMaps.cur[id], [2]int{short.refs, long.refs}
	packMaps.Unlock()
	if cur != long || refs != [2]int{2, 1} {
		t.Fatalf("the current mapping is the longer one: %v; holds %v, want [2 1]", cur == long, refs)
	}
	if n := mappings(t, path); n != 2 {
		t.Fatalf("the process maps the pack %d times, want 2", n)
	}

	a, b, c = nil, nil, nil
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		packMaps.Lock()
		_, current := packMaps.cur[id]
		refs = [2]int{short.refs, long.refs}
		packMaps.Unlock()
		if !current && refs == [2]int{} && mappings(t, path) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("every cache collected: current %v, holds %v, %d mappings left", current, refs, mappings(t, path))
		}
		time.Sleep(time.Millisecond)
	}
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

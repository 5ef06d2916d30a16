package simcache

import (
	"bytes"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
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

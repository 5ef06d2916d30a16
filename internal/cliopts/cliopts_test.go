package cliopts

import (
	"bytes"
	"flag"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stemroot/internal/gpu"
)

// TestOptionsFollowTheFlags: the parsed flags reach pipeline.Options, the
// barrier collector exists only for -engine par with -barrierstats, and
// -nocache leaves the cache out.
func TestOptionsFollowTheFlags(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.Register(fs, false)
	dir := t.TempDir()
	if err := fs.Parse([]string{"-j", "3", "-engine", "par", "-jkernel", "2", "-epoch", "128", "-cachedir", dir}); err != nil {
		t.Fatal(err)
	}
	opts, finish, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 3 || opts.Engine != gpu.EngineModePar || opts.KernelWorkers != 2 || opts.Epoch != 128 {
		t.Fatalf("options %+v do not follow the flags", opts)
	}
	if opts.Cache == nil || opts.BarrierStats == nil {
		t.Fatalf("default-on cache (%v) or par barrier collector (%v) missing", opts.Cache, opts.BarrierStats)
	}

	// finish reports the cache before the barrier, both through log.
	var stderr bytes.Buffer
	log.SetOutput(&stderr)
	defer log.SetOutput(os.Stderr)
	finish()
	out := stderr.String()
	c, b := strings.Index(out, "segment cache: "), strings.Index(out, "barrier")
	if c < 0 || b < c {
		t.Fatalf("finish printed:\n%s\nwant the segment-cache line, then the barrier line", out)
	}

	f = Flags{NoCache: true, BarrierStats: true}
	opts, finish, err = f.Options()
	if err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	finish()
	if opts.Cache != nil || opts.BarrierStats != nil || stderr.Len() != 0 {
		t.Fatalf("-nocache exact run: cache %v, collector %v, stderr %q", opts.Cache, opts.BarrierStats, stderr.String())
	}
}

// TestStartProfilesStopCompletesBothFiles: stop — deferred by both mains, so
// it runs on error returns too — leaves a finished CPU profile and a heap
// profile behind.
func TestStartProfilesStopCompletesBothFiles(t *testing.T) {
	dir := t.TempDir()
	f := Flags{CPUProfile: filepath.Join(dir, "cpu.prof"), MemProfile: filepath.Join(dir, "mem.prof")}
	stop, err := f.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{f.CPUProfile, f.MemProfile} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty profile", p, err)
		}
	}
	// The CPU profiler is released: a second capture can start.
	stop, err = f.StartProfiles()
	if err != nil {
		t.Fatalf("second StartProfiles: %v", err)
	}
	stop()

	if _, err := (&Flags{CPUProfile: filepath.Join(dir, "missing", "cpu.prof")}).StartProfiles(); err == nil {
		t.Fatal("unwritable -cpuprofile path accepted")
	}
}

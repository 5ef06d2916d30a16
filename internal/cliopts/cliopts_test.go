package cliopts

import (
	"bytes"
	"flag"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOptionsFollowTheFlags: the parsed flags reach pipeline.Options,
// finish reports the cache through log, and -nocache leaves the cache out
// and reports nothing.
func TestOptionsFollowTheFlags(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.Register(fs, false)
	dir := t.TempDir()
	if err := fs.Parse([]string{"-j", "3", "-cachedir", dir}); err != nil {
		t.Fatal(err)
	}
	opts, finish, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 3 || opts.Engine != "" || opts.KernelWorkers != 0 {
		t.Fatalf("options %+v do not follow the flags", opts)
	}
	if opts.Cache == nil {
		t.Fatal("default-on cache missing")
	}

	var stderr bytes.Buffer
	log.SetOutput(&stderr)
	defer log.SetOutput(os.Stderr)
	finish()
	if out := stderr.String(); !strings.Contains(out, "segment cache: ") || strings.Count(out, "\n") != 1 {
		t.Fatalf("finish printed:\n%s\nwant the one segment-cache line", out)
	}

	f = Flags{NoCache: true, CacheStats: true}
	opts, finish, err = f.Options()
	if err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	finish()
	if opts.Cache != nil || stderr.Len() != 0 {
		t.Fatalf("-nocache run: cache %v, stderr %q", opts.Cache, stderr.String())
	}
}

// TestOptionsRefusesBadCacheMB: a negative -cachemb, or one whose byte count
// overflows int64, is an error naming the flag rather than an unbounded or
// wrapped memory tier.
func TestOptionsRefusesBadCacheMB(t *testing.T) {
	for _, mb := range []int{-1, math.MaxInt64>>20 + 1, 1 << 44} {
		f := Flags{CacheMB: mb}
		opts, finish, err := f.Options()
		if err == nil || !strings.Contains(err.Error(), "-cachemb") {
			t.Errorf("-cachemb %d: err = %v, want one naming -cachemb", mb, err)
		}
		if opts.Cache != nil || finish != nil {
			t.Errorf("-cachemb %d: built a cache (%t) or a finish func", mb, opts.Cache != nil)
		}
	}
	f := Flags{CacheMB: math.MaxInt64 >> 20}
	if _, finish, err := f.Options(); err != nil {
		t.Fatalf("-cachemb %d (the largest that fits): %v", f.CacheMB, err)
	} else {
		finish()
	}
}

// TestRegisterRetiresParFlags pins the shared flag set at seven flags: the
// par engine's -engine, -jkernel, -epoch and -barrierstats are gone, and so
// is the cache server's -cacheaddr; both CLIs' flag sets refuse them.
func TestRegisterRetiresParFlags(t *testing.T) {
	for _, simulateOnly := range []bool{false, true} {
		var f Flags
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f.Register(fs, simulateOnly)
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		if n != 7 {
			t.Errorf("simulateOnly=%v: %d flags registered, want 7", simulateOnly, n)
		}
		for _, name := range []string{"engine", "jkernel", "epoch", "barrierstats", "cacheaddr"} {
			if fs.Lookup(name) != nil {
				t.Errorf("simulateOnly=%v: -%s is still registered", simulateOnly, name)
			}
			if err := fs.Parse([]string{"-" + name + "=1"}); err == nil {
				t.Errorf("simulateOnly=%v: -%s parsed", simulateOnly, name)
			}
		}
	}
}

// TestStartProfilesStopCompletesBothFiles: stop — deferred by both mains, so
// it runs on error returns too — leaves a finished CPU profile and a heap
// profile behind.
func TestStartProfilesStopCompletesBothFiles(t *testing.T) {
	dir := t.TempDir()
	f := Profiles{CPUProfile: filepath.Join(dir, "cpu.prof"), MemProfile: filepath.Join(dir, "mem.prof")}
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

	if _, err := (&Profiles{CPUProfile: filepath.Join(dir, "missing", "cpu.prof")}).StartProfiles(); err == nil {
		t.Fatal("unwritable -cpuprofile path accepted")
	}
}

// TestRegisterRefusesNegativeJobs: a negative -j fails the parse, naming the
// flag, on both CLIs' flag sets — it never silently means one worker per
// CPU. 0 and positive counts parse to themselves.
func TestRegisterRefusesNegativeJobs(t *testing.T) {
	for _, simulateOnly := range []bool{false, true} {
		for _, args := range [][]string{{"-j", "-3"}, {"-j=-1"}, {"-j", "two"}} {
			var f Flags
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f.Register(fs, simulateOnly)
			if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "-j") {
				t.Errorf("simulateOnly=%v, %q: err = %v, want one naming -j", simulateOnly, args, err)
			}
		}
		for _, want := range []int{0, 1, 7} {
			var f Flags
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			f.Register(fs, simulateOnly)
			if err := fs.Parse([]string{"-j", strconv.Itoa(want)}); err != nil || f.Jobs != want {
				t.Errorf("simulateOnly=%v, -j %d: Jobs = %d, err = %v", simulateOnly, want, f.Jobs, err)
			}
		}
	}
}

// Package cliopts is the one flag-to-pipeline.Options binder shared by
// cmd/stemroot and cmd/experiments: the worker, segment-cache and pprof
// flags, the cache they configure, and its exit-time report. Its pprof half,
// Profiles, and WriteFile, which leaves no partial output file, are every
// CLI's, cmd/benchgen's included.
package cliopts

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"stemroot/internal/pipeline"
	"stemroot/internal/simcache"
)

// Flags holds the parsed values of the shared flags. The zero value (what
// tests build) is a run at one worker per CPU with the in-memory cache on
// and the cache report off.
type Flags struct {
	Jobs       int
	CacheDir   string
	CacheMB    int
	NoCache    bool
	CacheStats bool
	Profiles
}

// Profiles holds the parsed -cpuprofile and -memprofile flags.
type Profiles struct {
	CPUProfile string
	MemProfile string
}

// Register declares -cpuprofile and -memprofile on fs.
func (p *Profiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this path")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a pprof heap profile to this path on exit")
}

// Register declares the shared flags on fs. simulateOnly selects the help
// wording of a CLI that reaches the simulator only under its -simulate flag
// (cmd/stemroot) over one whose every run simulates (cmd/experiments);
// names and defaults are the same for both. A negative -j fails fs.Parse,
// before any work: only 0 means one worker per CPU.
func (f *Flags) Register(fs *flag.FlagSet, simulateOnly bool) {
	scope, identical, noCache, statsWhen := "", "results are", "entirely", "on exit"
	if simulateOnly {
		scope, identical, noCache, statsWhen = "-simulate ", "output is", "in -simulate mode", "after -simulate"
	}
	fs.Func("j", "worker `count` (0 = one per CPU, 1 = serial; "+identical+" identical)", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return errors.New("want 0 (one per CPU) or a positive worker count")
		}
		f.Jobs = n
		return nil
	})
	fs.StringVar(&f.CacheDir, "cachedir", "", "persist "+scope+"segment results on disk in this directory (reused across runs)")
	fs.IntVar(&f.CacheMB, "cachemb", 0, "bound in MiB on the segment results this process computes or reads back (0 = default 256); the -cachedir pack is mapped and not counted")
	fs.BoolVar(&f.NoCache, "nocache", false, "disable the segment-result cache "+noCache)
	fs.BoolVar(&f.CacheStats, "cachestats", true, "print per-tier cache counters to stderr "+statsWhen)
	f.Profiles.Register(fs)
}

// StartProfiles starts the -cpuprofile capture. The returned stop writes
// the -memprofile heap profile and then ends the CPU profile; defer it so
// both files are complete on every exit path, error returns included.
func (p *Profiles) StartProfiles() (stop func(), err error) {
	var cpu *os.File
	if p.CPUProfile != "" {
		cpu, err = os.Create(p.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if p.MemProfile != "" {
			writeHeapProfile(p.MemProfile)
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				log.Print(err)
			}
		}
	}, nil
}

// WriteFile creates path, fills it through write and closes it. A file that
// could not be written whole — Close's error included — is removed, unless
// path names something other than a regular file (a device, a pipe).
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if st, serr := os.Lstat(path); serr == nil && st.Mode().IsRegular() {
			os.Remove(path)
		}
	}
	return err
}

// writeHeapProfile records an up-to-date heap profile, the evidence base
// for allocation-focused perf work (go tool pprof <binary> <path>).
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Print(err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Print(err)
	}
}

// Options builds the pipeline options the flags describe: the worker count
// and the segment cache with its disk tier unless -nocache. The cache is on
// by default because results are bit-identical with and without it (pinned
// by the determinism tests): there is no accuracy trade-off, only avoided
// re-simulation.
//
// finish must run once, after the last simulation and on error paths too.
// It prints the cache report, to stderr so stdout stays byte-comparable
// across cached and uncached runs.
//
// A -cachemb below 0, or one whose byte count overflows int64, is refused
// before any cache is built: the first would silently mean an unbounded
// memory tier and the second wraps, possibly to the default.
func (f *Flags) Options() (opts pipeline.Options, finish func(), err error) {
	if f.CacheMB < 0 || int64(f.CacheMB) > math.MaxInt64>>20 {
		return pipeline.Options{}, nil, fmt.Errorf("-cachemb must be between 0 and %d MiB, got %d", int64(math.MaxInt64>>20), f.CacheMB)
	}
	opts = pipeline.Options{Workers: f.Jobs}
	var cache *simcache.Cache
	if !f.NoCache {
		cache, err = simcache.New(simcache.Options{MaxBytes: int64(f.CacheMB) << 20, Dir: f.CacheDir})
		if err != nil {
			return pipeline.Options{}, nil, err
		}
		opts.Cache = cache
	}
	return opts, func() {
		if cache != nil && f.CacheStats {
			log.Printf("segment cache: %s", cache.Stats())
		}
	}, nil
}

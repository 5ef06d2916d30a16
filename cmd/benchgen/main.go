// Command benchgen generates the synthetic benchmark suites and writes
// workload traces (JSON) and kernel-level profiles (CSV, as a timeline
// profiler would emit) to a directory.
//
// Usage:
//
//	benchgen -suite casio -scale 0.1 -device rtx2080 -out traces/
//	benchgen -suite serving -invocations 10000000 -out - | stemroot -stream -profile -
//
// The serving suite is special: it streams a KernelSight-LM-style
// LLM-serving profile CSV (prefill/decode kernel mix, batch-dependent
// durations, bursty multi-tenant arrivals) of exactly -invocations rows,
// generated on the fly in O(1) memory, to a file or to stdout with
// "-out -" — the feed for stemroot's -stream service mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"stemroot/internal/cliopts"
	"stemroot/internal/hwmodel"
	"stemroot/internal/servetrace"
	"stemroot/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgen: ")
	if err := mainErr(); err != nil {
		log.Fatal(err)
	}
}

// mainErr is main's body. It returns its error instead of exiting where the
// error happens, so the deferred profile stop runs before main exits
// non-zero.
func mainErr() error {
	suite := flag.String("suite", "casio", "suite to generate: rodinia, casio, huggingface, serving")
	scale := flag.Float64("scale", 0.1, "suite scale factor (casio/huggingface)")
	seed := flag.Uint64("seed", 1, "generation seed")
	device := flag.String("device", "rtx2080", "profiling device: rtx2080, h100, h200")
	out := flag.String("out", "traces", "output directory (serving: output CSV path, or - for stdout)")
	invocations := flag.Int("invocations", 1_000_000, "serving suite: exact kernel invocations to emit")
	var prof cliopts.Profiles
	prof.Register(flag.CommandLine)
	flag.Parse()

	stop, err := prof.StartProfiles()
	if err != nil {
		return err
	}
	defer stop()

	if *suite == "serving" {
		return generateServing(*seed, *invocations, *out, os.Stdout, os.Stderr)
	}
	return generate(*suite, *scale, *seed, *device, *out, os.Stdout)
}

// generateServing streams a serving-trace profile CSV to out ("-" =
// stdout). The report line goes to errReport so stdout stays a clean CSV
// pipe. A bad -invocations is refused before out is created or truncated.
func generateServing(seed uint64, invocations int, out string, stdout, errReport io.Writer) error {
	if invocations <= 0 {
		return fmt.Errorf("-invocations must be positive, got %d", invocations)
	}
	s := servetrace.New(servetrace.Config{Seed: seed, Invocations: invocations})
	var err error
	if out == "-" {
		err = s.WriteCSV(stdout)
	} else {
		err = cliopts.WriteFile(out, s.WriteCSV)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(errReport, "serving trace: %d invocations, %d distinct kernels -> %s\n",
		invocations, s.NumKernels(), out)
	return nil
}

// generate produces the suite's trace and profile files under outDir and
// logs one line per workload to report.
func generate(suite string, scale float64, seed uint64, device, outDir string, report io.Writer) error {
	dev, err := hwmodel.ByName(device)
	if err != nil {
		return err
	}
	ws, err := workloads.Suite(suite, seed, scale)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	for _, w := range ws {
		tracePath := filepath.Join(outDir, w.Name+".trace.json")
		if err := cliopts.WriteFile(tracePath, w.WriteJSON); err != nil {
			return err
		}
		prof := hwmodel.New(dev, w.Seed).Profile(w)
		profPath := filepath.Join(outDir, w.Name+"."+dev.Name+".csv")
		if err := cliopts.WriteFile(profPath, func(out io.Writer) error { return prof.WriteCSV(w, out) }); err != nil {
			return err
		}
		fmt.Fprintf(report, "%-20s %8d kernel calls  total %12.1f us  -> %s, %s\n",
			w.Name, w.Len(), prof.TotalTime(), tracePath, profPath)
	}
	return nil
}

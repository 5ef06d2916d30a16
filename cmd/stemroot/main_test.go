package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stemroot"
	"stemroot/internal/core"
	"stemroot/internal/hwmodel"
	"stemroot/internal/rng"
	"stemroot/internal/sampling"
	"stemroot/internal/servetrace"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// writeProfile emits a synthetic profile CSV with two well-separated gemm
// contexts and a stable relu.
func writeProfile(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "profile.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintln(f, "seq,name,time_us")
	r := rng.New(5)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(f, "%d,gemm,%g\n", i, 100*(1+0.02*r.NormFloat64()))
		case 1:
			fmt.Fprintf(f, "%d,gemm,%g\n", i, 300*(1+0.02*r.NormFloat64()))
		default:
			fmt.Fprintf(f, "%d,relu,%g\n", i, 5*(1+0.01*r.NormFloat64()))
		}
	}
	return path
}

func baseCfg(profile string) cliConfig {
	return cliConfig{
		profilePath: profile,
		epsilon:     0.05,
		confidence:  0.95,
		seed:        1,
	}
}

func TestRunInMemory(t *testing.T) {
	cfg := baseCfg(writeProfile(t, 3000))
	cfg.verbose = true
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"invocations:      3000", "clusters:", "gemm", "expected speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunStreamingMatches(t *testing.T) {
	profile := writeProfile(t, 3000)
	var mem, str strings.Builder
	if err := run(baseCfg(profile), &mem); err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(profile)
	cfg.stream = true
	if err := run(cfg, &str); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(str.String(), "invocations:      3000") {
		t.Fatalf("streaming output wrong:\n%s", str.String())
	}
}

// clusterCount extracts the summary's cluster count.
func clusterCount(t *testing.T, out string) int {
	t.Helper()
	const label = "clusters:         "
	i := strings.Index(out, label)
	if i < 0 {
		t.Fatalf("no cluster count in:\n%s", out)
	}
	var n int
	if _, err := fmt.Sscanf(out[i+len(label):], "%d", &n); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRunStreamFlat: -flat means the same plan shape on the streaming path
// as on the batch path — one cluster per kernel name on a profile that fits
// its reservoirs — instead of being silently dropped.
func TestRunStreamFlat(t *testing.T) {
	profile := writeProfile(t, 3000)
	count := func(stream, flat bool) int {
		cfg := baseCfg(profile)
		cfg.stream, cfg.flat = stream, flat
		var buf strings.Builder
		if err := run(cfg, &buf); err != nil {
			t.Fatal(err)
		}
		return clusterCount(t, buf.String())
	}
	batchFlat, streamRoot := count(false, true), count(true, false)
	if batchFlat != 2 || streamRoot <= batchFlat {
		t.Fatalf("profile should split under ROOT: batch -flat %d clusters, -stream %d", batchFlat, streamRoot)
	}
	if got := count(true, true); got != batchFlat {
		t.Fatalf("-stream -flat: %d clusters, batch -flat: %d", got, batchFlat)
	}
}

func TestRunStreamSnapshots(t *testing.T) {
	profile := writeProfile(t, 5000)
	cfg := baseCfg(profile)
	cfg.stream = true
	cfg.snapshot = 1000
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "snapshot @"); got != 5 {
		t.Fatalf("want 5 rolling snapshots, got %d:\n%s", got, out)
	}
	for _, want := range []string{"snapshot @1000:", "snapshot @5000:", "invocations:      5000", "replans:", "extrapolated:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunStreamStdinDeterministic(t *testing.T) {
	// -profile - reads the CSV from stdin; two runs over the same bytes
	// must produce byte-identical output (the service-mode smoke).
	profile := writeProfile(t, 4000)
	data, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() string {
		cfg := baseCfg("-")
		cfg.stream = true
		cfg.snapshot = 1000
		cfg.stdin = strings.NewReader(string(data))
		var buf strings.Builder
		if err := run(cfg, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("stream runs differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "invocations:      4000") {
		t.Fatalf("unexpected stream output:\n%s", a)
	}

	// Without a stdin reader, -profile - must error, not crash.
	cfg := baseCfg("-")
	cfg.stream = true
	var buf strings.Builder
	if err := run(cfg, &buf); err == nil {
		t.Fatal("expected stdin-unavailable error")
	}
}

// TestRunStreamVerbosePopulations pins -stream -v's members column: a
// streaming plan does not materialise Members, so the column shows each
// cluster's Population — never 0, and summing exactly to the invocation
// count even though some kernels here outgrow their reservoirs, where the
// weights also carry a calibration scale.
func TestRunStreamVerbosePopulations(t *testing.T) {
	const invocations = 200_000
	path := filepath.Join(t.TempDir(), "serving.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := servetrace.New(servetrace.Config{Seed: 1, Invocations: invocations}).WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(path)
	cfg.stream = true
	cfg.verbose = true
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	_, rows, ok := strings.Cut(buf.String(), "clusters (by total time):\n")
	if !ok {
		t.Fatalf("no cluster listing:\n%s", buf.String())
	}
	sum := 0
	for _, row := range strings.Split(strings.TrimSpace(rows), "\n") {
		var kernel string
		var members int
		if _, err := fmt.Sscanf(row, "%s members=%d", &kernel, &members); err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		if members == 0 {
			t.Fatalf("row reads members=0: %q", row)
		}
		sum += members
	}
	if sum != invocations {
		t.Fatalf("members column sums to %d, want %d", sum, invocations)
	}
}

// TestRunStreamAllZeroTimes pins the whole stdout of a stream whose times
// are all 0: the final summary's gap follows the same rule as the rolling
// snapshots' (no total, no gap), not 0/0.
func TestRunStreamAllZeroTimes(t *testing.T) {
	cfg := baseCfg("-")
	cfg.stream = true
	cfg.snapshot = 2
	cfg.stdin = strings.NewReader("seq,name,time_us\n0,a,0\n1,a,0\n2,b,0\n3,a,0\n")
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	const want = `snapshot @2: kernels=1 clusters=1 samples=1 predicted_error=0.0000 total_us=0.000000e+00 extrapolated_us=0.000000e+00 gap=+0.000% replans=1
snapshot @4: kernels=2 clusters=2 samples=2 predicted_error=0.0000 total_us=0.000000e+00 extrapolated_us=0.000000e+00 gap=+0.000% replans=2
invocations:      4
kernels:          2
clusters:         2
samples (w/repl): 2
distinct samples: 2
predicted error:  0.0000 (bound 0.05)
total time:       0.000000e+00 us
extrapolated:     0.000000e+00 us (gap +0.000%)
replans:          3
`
	if got := buf.String(); got != want {
		t.Fatalf("all-zero stream printed:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunStreamTruncated is the service-mode contract for a stream that
// ends mid-line: an error naming the line when the cut leaves no parsable
// time, the shorter number as the last row when it does.
func TestRunStreamTruncated(t *testing.T) {
	const head = "seq,name,time_us\n0,gemm,12.5\n"
	for _, tc := range []struct {
		tail    string
		wantErr string // "" = accepted
		rows    int
	}{
		{"1", "3 fields (line 3)", 0},
		{"1,re", "3 fields (line 3)", 0},
		{"1,relu,", `parse time "": `, 0},
		{"1,relu,7.2e", `parse time "7.2e": `, 0},
		{"1,relu,7.", "", 2},
		{"1,relu,7.25\r", "", 2},
	} {
		cfg := baseCfg("-")
		cfg.stream = true
		cfg.stdin = strings.NewReader(head + tc.tail)
		var buf strings.Builder
		err := run(cfg, &buf)
		switch {
		case tc.wantErr == "":
			if err != nil || !strings.Contains(buf.String(), fmt.Sprintf("invocations:      %d\n", tc.rows)) {
				t.Errorf("stream ending %q: err %v, output:\n%s", tc.tail, err, buf.String())
			}
		case err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "(line 3)"):
			t.Errorf("stream ending %q: err %v, want one holding %q and the line", tc.tail, err, tc.wantErr)
		}
	}
}

func TestRunStreamMatchesSampleStreamPlanJSON(t *testing.T) {
	// The service mode's plan JSON round-trips to the plan SampleStream
	// builds over the same rows (end to end through the CLI).
	profile := writeProfile(t, 3000)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	cfg := baseCfg(profile)
	cfg.stream = true
	cfg.planOut = planPath
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(planPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := stemroot.ReadPlanJSON(f)
	if err != nil {
		t.Fatal(err)
	}

	names, times, err := readProfileFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stemroot.SampleStream(sliceScanner{names, times},
		stemroot.Options{Epsilon: 0.05, Confidence: 0.95, Seed: 1}, stemroot.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("clusters: stream CLI %d vs SampleStream %d", len(got.Clusters), len(want.Clusters))
	}
	for i := range got.Clusters {
		g, w := got.Clusters[i], want.Clusters[i]
		if g.Kernel != w.Kernel || g.Weight != w.Weight || g.Mean != w.Mean || g.StdDev != w.StdDev {
			t.Fatalf("cluster %d differs:\n stream CLI   %+v\n SampleStream %+v", i, g, w)
		}
		if len(g.Samples) != len(w.Samples) {
			t.Fatalf("cluster %d sample count %d vs %d", i, len(g.Samples), len(w.Samples))
		}
		for j := range g.Samples {
			if g.Samples[j] != w.Samples[j] {
				t.Fatalf("cluster %d sample %d: %d vs %d", i, j, g.Samples[j], w.Samples[j])
			}
		}
	}
}

func TestRunWritesPlanJSON(t *testing.T) {
	profile := writeProfile(t, 1500)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	cfg := baseCfg(profile)
	cfg.planOut = planPath
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(planPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := stemroot.ReadPlanJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) == 0 {
		t.Fatal("empty plan written")
	}
}

// TestWritePlanLeavesNoPartialFile: a plan -o cannot write whole (here one
// WriteJSON refuses) leaves no file behind.
func TestWritePlanLeavesNoPartialFile(t *testing.T) {
	cfg := cliConfig{planOut: filepath.Join(t.TempDir(), "plan.json")}
	plan := &stemroot.Plan{PredictedError: math.NaN()}
	var out strings.Builder
	if err := writePlan(cfg, plan, &out); err == nil {
		t.Fatal("a plan with a NaN error was written")
	}
	if _, err := os.Stat(cfg.planOut); !os.IsNotExist(err) || out.Len() > 0 {
		t.Fatalf("failed -o left %s (%v) or printed %q", cfg.planOut, err, out.String())
	}
}

// readProfileFile loads a CSV profile for test comparisons.
func readProfileFile(path string) ([]string, []float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return trace.ReadProfileCSV(f)
}

// sliceScanner adapts in-memory slices to the public Scanner interface.
type sliceScanner struct {
	names []string
	times []float64
}

func (s sliceScanner) Scan(yield func(string, float64) bool) error {
	for i, n := range s.names {
		if !yield(n, s.times[i]) {
			return nil
		}
	}
	return nil
}

func TestRunErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(cliConfig{}, &buf); err == nil {
		t.Fatal("expected missing-profile error")
	}
	cfg := baseCfg("/nonexistent/profile.csv")
	if err := run(cfg, &buf); err == nil {
		t.Fatal("expected open error")
	}
	cfg = baseCfg(writeProfile(t, 100))
	cfg.epsilon = 7
	if err := run(cfg, &buf); err == nil {
		t.Fatal("expected epsilon validation error")
	}
}

func TestRunTDistFlag(t *testing.T) {
	cfg := baseCfg(writeProfile(t, 2000))
	cfg.tdist = true
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "predicted error") {
		t.Fatal("missing summary")
	}
}

func TestRunSimulate(t *testing.T) {
	profile := writeProfile(t, 600)
	cacheDir := filepath.Join(t.TempDir(), "segcache")
	cfg := baseCfg(profile)
	cfg.simulate = true
	cfg.simCalls = 48
	cfg.sim.CacheDir = cacheDir
	cfg.sim.Jobs = 1

	var first, second strings.Builder
	if err := run(cfg, &first); err != nil {
		t.Fatal(err)
	}
	out := first.String()
	for _, want := range []string{"simulator validation", "samples:", "full cycles", "measured error", "sim speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// A second run reuses the disk-cached segments and must print the exact
	// same report (cache substitution is bit-identical).
	if err := run(cfg, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("warm run output differs:\n--- cold ---\n%s--- warm ---\n%s", first.String(), second.String())
	}
	if fi, err := os.Stat(filepath.Join(cacheDir, "segments.pack")); err != nil || fi.Size() == 0 {
		t.Fatalf("no disk cache entries written (%v)", err)
	}
}

// TestRunSimulateRefusesNonPositiveSimcalls: -simcalls 0 or below would
// lift the cap and simulate every row; it is refused before the profile is
// read (here it does not exist) or the -o plan is written.
func TestRunSimulateRefusesNonPositiveSimcalls(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, -1} {
		cfg := baseCfg(filepath.Join(dir, "missing.csv"))
		cfg.simulate = true
		cfg.simCalls = n
		cfg.planOut = filepath.Join(dir, "plan.json")
		var out strings.Builder
		err := run(cfg, &out)
		if err == nil || !strings.Contains(err.Error(), "-simcalls") {
			t.Fatalf("-simcalls %d: err = %v, want one naming -simcalls", n, err)
		}
		if _, err := os.Stat(cfg.planOut); !os.IsNotExist(err) {
			t.Fatalf("-simcalls %d wrote %s (%v)", n, cfg.planOut, err)
		}
	}
}

// TestRunRefusesSnapshotOutsideItsDomain: a negative -snapshot, and any
// -snapshot without -stream, are refused by name before the profile is read
// or the -o plan is written. Only 0 means "final plan only".
func TestRunRefusesSnapshotOutsideItsDomain(t *testing.T) {
	profile := writeProfile(t, 300)
	for _, c := range []struct {
		snapshot int
		stream   bool
	}{{100, false}, {-5, true}, {-5, false}} {
		cfg := baseCfg(profile)
		cfg.snapshot, cfg.stream = c.snapshot, c.stream
		cfg.planOut = filepath.Join(t.TempDir(), "plan.json")
		var out strings.Builder
		err := run(cfg, &out)
		if err == nil || !strings.Contains(err.Error(), "-snapshot") {
			t.Fatalf("-snapshot %d (stream %v): err = %v, want one naming -snapshot", c.snapshot, c.stream, err)
		}
		if _, err := os.Stat(cfg.planOut); !os.IsNotExist(err) || out.Len() > 0 {
			t.Fatalf("-snapshot %d (stream %v) wrote %s (%v) or printed %q", c.snapshot, c.stream, cfg.planOut, err, out.String())
		}
	}
}

// TestRunSimulateFlat: -simulate -flat validates the flat plan it printed,
// not a hierarchical one — the validation block's sample count is what a
// flat STEM plan samples on the reconstructed workload.
func TestRunSimulateFlat(t *testing.T) {
	// Two gemm contexts far enough apart, and long enough, to survive the
	// reconstruction's work floor as two modes on the simulator.
	profile := filepath.Join(t.TempDir(), "bimodal.csv")
	var csv strings.Builder
	csv.WriteString("seq,name,time_us\n")
	for i := 0; i < 96; i++ {
		fmt.Fprintf(&csv, "%d,gemm,%d\n", i, 40000+80000*(i%2))
	}
	if err := os.WriteFile(profile, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(profile)
	cfg.simulate = true
	cfg.simCalls = 96
	cfg.flat = true
	cfg.sim.NoCache = true
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}

	names, times, err := readProfileFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.FromProfile(filepath.Base(profile), names, times, cfg.seed, cfg.simCalls)
	prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
	samples := func(flat bool) int {
		p := core.DefaultParams()
		p.Flat = flat
		plan, err := (&sampling.STEMRoot{Params: p}).Plan(w, prof)
		if err != nil {
			t.Fatal(err)
		}
		return len(plan.SampledIndices())
	}
	flat, root := samples(true), samples(false)
	if flat == root {
		t.Fatalf("profile does not tell flat from hierarchical: both sample %d", flat)
	}
	if want := fmt.Sprintf("  samples:          %d\n", flat); !strings.Contains(buf.String(), want) {
		t.Fatalf("validation block does not report the flat plan's %d samples (hierarchical: %d):\n%s", flat, root, buf.String())
	}
}

func TestRunSimulateRejectsStream(t *testing.T) {
	cfg := baseCfg(writeProfile(t, 300))
	cfg.simulate = true
	cfg.stream = true
	var buf strings.Builder
	if err := run(cfg, &buf); err == nil {
		t.Fatal("expected -simulate/-stream conflict error")
	}
}

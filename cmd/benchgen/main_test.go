package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

func TestGenerateRodinia(t *testing.T) {
	dir := t.TempDir()
	var buf strings.Builder
	if err := generate("rodinia", 1, 1, "rtx2080", dir, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "heartwall") {
		t.Fatal("report missing workloads")
	}
	// Every workload gets a trace and a profile.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 13*2 {
		t.Fatalf("generated %d files, want 26", len(entries))
	}

	// Round-trip one trace and one profile.
	tf, err := os.Open(filepath.Join(dir, "heartwall.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	var w trace.Workload
	if err := json.NewDecoder(tf).Decode(&w); err != nil {
		t.Fatal(err)
	}
	if w.Name != "heartwall" || w.Len() == 0 {
		t.Fatalf("bad trace round trip: %s/%d", w.Name, w.Len())
	}

	pf, err := os.Open(filepath.Join(dir, "heartwall.rtx2080.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	names, times, err := trace.ReadProfileCSV(pf)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != w.Len() || len(times) != w.Len() {
		t.Fatalf("profile rows %d, want %d", len(names), w.Len())
	}
}

func TestGenerateServing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serving.csv")
	var report strings.Builder
	if err := generateServing(1, 5000, path, nil, &report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "5000 invocations") {
		t.Fatalf("report: %q", report.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names, _, err := trace.ReadProfileCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5000 {
		t.Fatalf("serving CSV rows %d", len(names))
	}

	// "-out -" streams to the given stdout writer.
	var stdout strings.Builder
	if err := generateServing(1, 100, "-", &stdout, &report); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "seq,name,time_us\n") {
		t.Fatal("stdout stream missing CSV header")
	}
}

// TestGenerateServingRefusesBeforeTouchingOutput: a bad -invocations must
// neither create the output nor truncate one that exists.
func TestGenerateServingRefusesBeforeTouchingOutput(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, -5} {
		fresh := filepath.Join(dir, "fresh.csv")
		if err := generateServing(1, n, fresh, nil, io.Discard); err == nil || !strings.Contains(err.Error(), "-invocations") {
			t.Fatalf("-invocations %d: err = %v", n, err)
		}
		if _, err := os.Stat(fresh); !os.IsNotExist(err) {
			t.Fatalf("-invocations %d left %s behind (%v)", n, fresh, err)
		}
		kept := filepath.Join(dir, "kept.csv")
		if err := os.WriteFile(kept, []byte("yesterday's trace"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := generateServing(1, n, kept, nil, io.Discard); err == nil {
			t.Fatalf("-invocations %d accepted", n)
		}
		if got, _ := os.ReadFile(kept); string(got) != "yesterday's trace" {
			t.Fatalf("-invocations %d truncated an existing file to %q", n, got)
		}
		var stdout strings.Builder
		if err := generateServing(1, n, "-", &stdout, io.Discard); err == nil || stdout.Len() != 0 {
			t.Fatalf("-invocations %d to stdout: err = %v, %d bytes written", n, err, stdout.Len())
		}
	}
	if err := generateServing(1, 10, filepath.Join(dir, "no", "such", "dir.csv"), nil, io.Discard); err == nil {
		t.Fatal("uncreatable output accepted")
	}
}

func TestGenerateErrors(t *testing.T) {
	dir := t.TempDir()
	var buf strings.Builder
	if err := generate("spec2017", 1, 1, "rtx2080", dir, &buf); err == nil {
		t.Fatal("expected unknown-suite error")
	}
	if err := generate("rodinia", 1, 1, "mi300x", dir, &buf); err == nil {
		t.Fatal("expected unknown-device error")
	}
}

// TestGenerateRefusesBadScalesBeforeTouchingOutput: a -scale that is NaN,
// infinite, not positive or past an int's iteration count is refused
// before the output directory is created.
func TestGenerateRefusesBadScalesBeforeTouchingOutput(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), 0, -1, 1e300} {
		out := filepath.Join(t.TempDir(), "traces")
		if err := generate("casio", scale, 1, "rtx2080", out, io.Discard); !errors.Is(err, workloads.ErrScale) {
			t.Fatalf("-scale %v: err = %v, want workloads.ErrScale", scale, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("-scale %v created %s (%v)", scale, out, err)
		}
	}
}

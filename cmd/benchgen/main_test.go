package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stemroot/internal/trace"
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

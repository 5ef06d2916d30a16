package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func sampleWorkload() *Workload {
	w := &Workload{Name: "toy", Suite: "test", Seed: 1}
	names := []string{"gemm", "gemm", "relu", "gemm", "softmax"}
	for i, n := range names {
		w.Invs = append(w.Invs, Invocation{
			Seq:           i,
			Name:          n,
			Grid:          Dim3{X: 8, Y: 1, Z: 1},
			Block:         Dim3{X: 128, Y: 1, Z: 1},
			InstrsPerWarp: int64(1000 * (i + 1)),
			BBVSeed:       uint64(100 + i),
			Latent:        Latent{Context: i % 2},
		})
	}
	return w
}

func TestDim3Count(t *testing.T) {
	if (Dim3{X: 2, Y: 3, Z: 4}).Count() != 24 {
		t.Fatal("count wrong")
	}
	if (Dim3{X: 5}).Count() != 5 {
		t.Fatal("zero dims should count as 1")
	}
	if (Dim3{}).Count() != 1 {
		t.Fatal("empty Dim3 should count as 1")
	}
}

func TestWarps(t *testing.T) {
	inv := Invocation{Grid: Dim3{X: 4}, Block: Dim3{X: 64}}
	if got := inv.Warps(); got != 8 {
		t.Fatalf("warps = %d, want 8", got)
	}
	inv = Invocation{Grid: Dim3{X: 2}, Block: Dim3{X: 33}}
	if got := inv.Warps(); got != 4 { // 33 threads -> 2 warps per block
		t.Fatalf("warps = %d, want 4", got)
	}
}

func TestGroupByName(t *testing.T) {
	w := sampleWorkload()
	groups := w.GroupByName()
	if len(groups) != 3 {
		t.Fatalf("expected 3 kernel names, got %d", len(groups))
	}
	if got := groups["gemm"]; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("gemm group = %v", got)
	}
	if names := w.KernelNames(); len(names) != 3 || names[0] != "gemm" || names[1] != "relu" {
		t.Fatalf("kernel names = %v", names)
	}
}

func TestProfileTotalAndValidate(t *testing.T) {
	w := sampleWorkload()
	p := &Profile{Device: "test", TimeUS: []float64{1, 2, 3, 4, 5}}
	if err := p.Validate(w); err != nil {
		t.Fatal(err)
	}
	if p.TotalTime() != 15 {
		t.Fatalf("total = %v", p.TotalTime())
	}
	bad := &Profile{TimeUS: []float64{1}}
	if err := bad.Validate(w); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestBBVDeterministicAndScaled(t *testing.T) {
	w := sampleWorkload()
	inv := &w.Invs[0]
	a := inv.BBV(64)
	b := inv.BBV(64)
	sum := 0.0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("BBV not deterministic")
		}
		if a[i] < 0 {
			t.Fatal("negative BBV weight")
		}
		sum += a[i]
	}
	// BBVs are execution-count histograms: total mass tracks the dynamic
	// instruction count.
	if math.Abs(sum-float64(inv.InstrsPerWarp)) > 1e-6*float64(inv.InstrsPerWarp) {
		t.Fatalf("BBV mass = %v, want %d", sum, inv.InstrsPerWarp)
	}
	if got := inv.BBV(0); len(got) != DefaultBBVDim {
		t.Fatalf("default dim = %d", len(got))
	}
}

func TestBBVMagnitudeSensitivity(t *testing.T) {
	// Same kernel, 2x the dynamic work: not "identical" to Photon.
	a := Invocation{Name: "fan2", BBVSeed: 1, InstrsPerWarp: 10000}
	b := Invocation{Name: "fan2", BBVSeed: 2, InstrsPerWarp: 20000}
	if s := BBVSimilarity(a.BBV(64), b.BBV(64)); s > 0.95 {
		t.Fatalf("2x work similarity = %v, should fall below the 0.95 threshold", s)
	}
	// Within a few percent of the same work: identical.
	c := Invocation{Name: "fan2", BBVSeed: 3, InstrsPerWarp: 10050}
	if s := BBVSimilarity(a.BBV(64), c.BBV(64)); s < 0.95 {
		t.Fatalf("same-work similarity = %v, should exceed 0.95", s)
	}
}

func TestBBVDistinguishesKernels(t *testing.T) {
	w := sampleWorkload()
	gemm := w.Invs[0].BBV(64)
	relu := w.Invs[2].BBV(64)
	if s := BBVSimilarity(gemm, relu); s > 0.9 {
		t.Fatalf("different kernels too similar: %v", s)
	}
}

func TestBBVSameKernelSameContextVerySimilar(t *testing.T) {
	a := Invocation{Name: "gemm", BBVSeed: 1, Latent: Latent{Context: 0}}
	b := Invocation{Name: "gemm", BBVSeed: 2, Latent: Latent{Context: 0}}
	if s := BBVSimilarity(a.BBV(64), b.BBV(64)); s < 0.97 {
		t.Fatalf("same kernel+context similarity = %v, want >= 0.97", s)
	}
}

func TestBBVContextShiftsVector(t *testing.T) {
	a := Invocation{Name: "gemm", BBVSeed: 1, Latent: Latent{Context: 0}}
	b := Invocation{Name: "gemm", BBVSeed: 2, Latent: Latent{Context: 1}}
	same := BBVSimilarity(a.BBV(64), a.BBV(64))
	cross := BBVSimilarity(a.BBV(64), b.BBV(64))
	if cross >= same {
		t.Fatalf("context change should reduce similarity: same=%v cross=%v", same, cross)
	}
}

func TestBBVSimilarityProperties(t *testing.T) {
	check := func(seedA, seedB uint64) bool {
		a := Invocation{Name: "k", BBVSeed: seedA}
		b := Invocation{Name: "k", BBVSeed: seedB}
		va, vb := a.BBV(32), b.BBV(32)
		s := BBVSimilarity(va, vb)
		// Symmetric, bounded, self-similarity 1.
		return s >= 0 && s <= 1 &&
			math.Abs(s-BBVSimilarity(vb, va)) < 1e-12 &&
			math.Abs(BBVSimilarity(va, va)-1) < 1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if BBVSimilarity([]float64{1}, []float64{0.5, 0.5}) != 0 {
		t.Fatal("mismatched lengths should give 0")
	}
}

// TestBBVSimilarityDegenerate pins the special-valued branches Photon's 95 %
// test meets: a pair of zero-mass vectors is exactly 1 (identical), a zero
// vector against a non-zero one is 0, and vectors of different lengths are 0
// however alike their entries.
func TestBBVSimilarityDegenerate(t *testing.T) {
	zero := []float64{0, 0, 0}
	if s := BBVSimilarity(zero, zero); s != 1 {
		t.Fatalf("zero-mass pair has similarity %v, want exactly 1", s)
	}
	if s := BBVSimilarity(nil, nil); s != 1 {
		t.Fatalf("empty pair has similarity %v, want exactly 1", s)
	}
	if s := BBVSimilarity(zero, []float64{0, 2, 0}); s != 0 {
		t.Fatalf("zero vs non-zero has similarity %v, want 0", s)
	}
	if s := BBVSimilarity([]float64{1, 0}, []float64{0, 1}); s != 0 {
		t.Fatalf("disjoint vectors have similarity %v, want 0", s)
	}
	if s := BBVSimilarity([]float64{1}, []float64{1, 0}); s != 0 {
		t.Fatalf("mismatched lengths have similarity %v, want 0", s)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := sampleWorkload()
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Workload
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || got.Len() != w.Len() {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Invs[3].Name != "gemm" || got.Invs[3].InstrsPerWarp != 4000 {
		t.Fatalf("invocation lost: %+v", got.Invs[3])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	w := sampleWorkload()
	p := &Profile{Device: "rtx2080", TimeUS: []float64{1.5, 2.25, 3, 4, 5.125}}
	var buf bytes.Buffer
	if err := p.WriteCSV(w, &buf); err != nil {
		t.Fatal(err)
	}
	names, times, err := ReadProfileCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 || names[2] != "relu" {
		t.Fatalf("names = %v", names)
	}
	for i, want := range p.TimeUS {
		if times[i] != want {
			t.Fatalf("time[%d] = %v, want %v", i, times[i], want)
		}
	}
}

func TestReadProfileCSVErrors(t *testing.T) {
	if _, _, err := ReadProfileCSV(bytes.NewBufferString("bogus,header,x\n")); err == nil {
		t.Fatal("expected header error")
	}
	if _, _, err := ReadProfileCSV(bytes.NewBufferString("seq,name,time_us\n0,k,notanumber\n")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestCSVScannerStreams(t *testing.T) {
	w := sampleWorkload()
	p := &Profile{Device: "rtx2080", TimeUS: []float64{1, 2, 3, 4, 5}}
	path := filepath.Join(t.TempDir(), "prof.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteCSV(w, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var names []string
	var times []float64
	if err := fileReader(t, path).Scan(func(n string, tt float64) bool {
		names = append(names, n)
		times = append(times, tt)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 || names[2] != "relu" || times[4] != 5 {
		t.Fatalf("scanned %v %v", names, times)
	}

	// A second read of the file sees the identical sequence.
	count := 0
	if err := fileReader(t, path).Scan(func(string, float64) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("second scan saw %d rows", count)
	}

	// Early stop.
	count = 0
	if err := fileReader(t, path).Scan(func(string, float64) bool { count++; return false }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("early stop scanned %d", count)
	}
}

func TestCSVScannerErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("wrong,header,here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fileReader(t, bad).Scan(func(string, float64) bool { return true }); err == nil {
		t.Fatal("expected header error")
	}
	bad2 := filepath.Join(dir, "bad2.csv")
	if err := os.WriteFile(bad2, []byte("seq,name,time_us\n0,k,notanumber\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fileReader(t, bad2).Scan(func(string, float64) bool { return true }); err == nil {
		t.Fatal("expected parse error")
	}
}

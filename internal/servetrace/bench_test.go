package servetrace

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkWriteCSV is benchgen -suite serving, and the benchmark's
// stream_serve set-up: 10⁶ rows to a file. Run with -cpu 1,2: one core
// must match the serial writer this replaced, two must beat it.
func BenchmarkWriteCSV(b *testing.B) {
	const rows = 1_000_000
	s := New(Config{Seed: 1, Invocations: rows})
	path := filepath.Join(b.TempDir(), "serve.csv")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.WriteCSV(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

package trace_test

import (
	"bytes"
	"io"
	"testing"

	"stemroot/internal/servetrace"
	"stemroot/internal/trace"
)

// BenchmarkScanBytes is the decoder alone: serving-trace rows (17-digit
// times) through ScanBytes with a no-op yield, read through a 1 MiB window
// the way a file or pipe is.
func BenchmarkScanBytes(b *testing.B) {
	const rows = 200_000
	var data bytes.Buffer
	if err := servetrace.New(servetrace.Config{Seed: 1, Invocations: rows}).WriteCSV(&data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(data.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		src := struct{ io.Reader }{bytes.NewReader(data.Bytes())} // hide Len: unknown length, full window
		if err := trace.NewFastCSVReader(src).ScanBytes(func([]byte, float64) bool { n++; return true }); err != nil || n != rows {
			b.Fatalf("scanned %d rows of %d: %v", n, rows, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}

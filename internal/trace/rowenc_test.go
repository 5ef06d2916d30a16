package trace

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refRows is the encoder as encoding/csv and strconv alone would write it.
func refRows(t testing.TB, seqs []int, names []string, times []float64) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for i := range seqs {
		rec := []string{strconv.Itoa(seqs[i]), names[i], strconv.FormatFloat(times[i], 'g', -1, 64)}
		if err := cw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeRows(seqs []int, names []string, times []float64) []byte {
	var enc RowEncoder
	var out []byte
	for i := range seqs {
		out = enc.AppendRow(out, seqs[i], names[i], times[i])
	}
	return out
}

// TestRowEncoderSequenceCounter walks the in-place counter over every
// carry it has — a new digit, a run of nines, a jump, a repeat, a step
// back, negatives, and the last int — against strconv.
func TestRowEncoderSequenceCounter(t *testing.T) {
	var seqs []int
	for i := 0; i < 1200; i++ { // 9→10, 99→100, 999→1000
		seqs = append(seqs, i)
	}
	seqs = append(seqs, 99998, 99999, 100000, 7, 7, 6, -3, -2, -1, 0, 1,
		math.MaxInt-1, math.MaxInt, math.MinInt, math.MinInt+1, 1<<53-1, 1<<53, 999999999999999999, 1000000000000000000)
	names := make([]string, len(seqs))
	times := make([]float64, len(seqs))
	for i := range seqs {
		names[i], times[i] = "k", float64(i)/8
	}
	if got, want := encodeRows(seqs, names, times), refRows(t, seqs, names, times); !bytes.Equal(got, want) {
		t.Fatalf("encoder and encoding/csv differ:\n%q\n%q", got, want)
	}
}

func TestRowEncoderQuotesLikeEncodingCSV(t *testing.T) {
	names := []string{
		"gemm", "", `\.`, "a,b", `say "hi"`, `"`, `""`, "line\nbreak", "cr\rhere", "crlf\r\nhere",
		" leading", "trailing ", "\tleading tab", "\u00a0nbsp first", "mid\u00a0nbsp", "\u2003em space first",
		"\xff\xfe invalid utf8", "\x85 nel byte", "\u0085nel", "void f(int, float)", "k<a, b>::op\"\"",
	}
	seqs := make([]int, len(names))
	times := make([]float64, len(names))
	for i := range names {
		seqs[i], times[i] = i, 1.5
	}
	got, want := encodeRows(seqs, names, times), refRows(t, seqs, names, times)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder and encoding/csv differ:\n%q\n%q", got, want)
	}
	// And the rows read back as written, through the decoder's quoted path.
	back, _, err := ReadProfileCSV(strings.NewReader(ProfileHeader + string(got)))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		// encoding/csv reads a quoted \r\n as \n.
		if want := strings.ReplaceAll(n, "\r\n", "\n"); back[i] != want {
			t.Errorf("row %d: wrote %q, read %q", i, n, back[i])
		}
	}
}

// TestMaxRowLenBounds: no row is longer than MaxRowLen says, at the
// longest sequence numbers and floats and with names that double in quoting.
func TestMaxRowLenBounds(t *testing.T) {
	var enc RowEncoder
	for _, name := range []string{"", "gemm", `"""`, "a,b", " x", `\.`} {
		for _, seq := range []int{math.MinInt, math.MaxInt, 0} {
			for _, v := range []float64{-math.SmallestNonzeroFloat64, -math.MaxFloat64, -2.2250738585072014e-308, math.Inf(-1), math.NaN(), 0.1 + 0.2} {
				if row := enc.AppendRow(nil, seq, name, v); len(row) > MaxRowLen(name) {
					t.Errorf("row %q is %d bytes, MaxRowLen %d", row, len(row), MaxRowLen(name))
				}
			}
		}
	}
	if got, want := MaxRowLen(`"""`), len(`""""""""`)+maxRowOverhead; got != want {
		t.Errorf("MaxRowLen of three quotes = %d, want %d", got, want)
	}
}

func TestRowEncoderDoesNotAllocate(t *testing.T) {
	var enc RowEncoder
	buf := make([]byte, 0, 256)
	seq := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = enc.AppendRow(buf[:0], seq, `needs "quotes", this one`, 0.30000000000000004)
		seq++
	}); allocs != 0 {
		t.Fatalf("AppendRow allocates %v per row", allocs)
	}
}

// FuzzRowEncoder pins the encoder to encoding/csv and strconv byte for
// byte: two consecutive rows, then one out of sequence.
func FuzzRowEncoder(f *testing.F) {
	f.Add(0, "gemm", 1.5, "relu", 2.0)
	f.Add(9, `quoted,"name"`, 0.1, " space", math.Inf(1))
	f.Add(-1, "line\nbreak", math.NaN(), `\.`, -0.0)
	f.Add(math.MaxInt-1, " ", 5e-324, "\r", 1.7976931348623157e308)
	f.Add(99999, "", 1e21, "\xff", 1e-7)
	f.Fuzz(func(t *testing.T, seq int, n1 string, t1 float64, n2 string, t2 float64) {
		seqs := []int{seq, seq + 1, seq / 2} // seq+1 may wrap: the encoder must render it afresh
		names := []string{n1, n2, n1}
		times := []float64{t1, t2, t1}
		if got, want := encodeRows(seqs, names, times), refRows(t, seqs, names, times); !bytes.Equal(got, want) {
			t.Fatalf("encoder and encoding/csv differ:\n%q\n%q", got, want)
		}
	})
}

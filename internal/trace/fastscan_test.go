package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func writeTempCSV(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "profile.csv")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func collect(t *testing.T, s interface {
	Scan(func(string, float64) bool) error
}) ([]string, []float64) {
	t.Helper()
	var names []string
	var times []float64
	if err := s.Scan(func(n string, v float64) bool {
		names = append(names, n)
		times = append(times, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return names, times
}

// TestFastCSVScannerMatchesCSVScanner pins the decoder to encoding/csv's
// reading of line ends, blank lines and quoting, multi-line quoted names
// and rows after the hand-off included. (The differential fuzz against an
// encoding/csv reference is workloads.FuzzFromProfile.)
func TestFastCSVScannerMatchesCSVScanner(t *testing.T) {
	body := "\n" + // blank line before the header: skipped
		"seq,name,time_us\r\n" +
		"0,gemm,1.5\n" +
		"1,softmax,2.25e-1\r\n" +
		"\n" + // blank line: skipped
		"2,\"quoted,name\",3\n" + // first quote: encoding/csv takes over here
		"3,plain after quote,3.5\r\n" +
		"4,\"two\nlines \"\"q\"\"\",4\n" +
		"\n" +
		"5,layer norm,4.125" // no trailing newline
	wantN := []string{"gemm", "softmax", "quoted,name", "plain after quote", "two\nlines \"q\"", "layer norm"}
	wantT := []float64{1.5, 0.225, 3, 3.5, 4, 4.125}

	gotN, gotT := collect(t, FastCSVScanner{Path: writeTempCSV(t, body)})
	if !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotT, wantT) {
		t.Fatalf("scanned (%q, %v), want (%q, %v)", gotN, gotT, wantN, wantT)
	}
	memN, memT, err := ReadProfileCSV(strings.NewReader(body))
	if err != nil || !reflect.DeepEqual(memN, wantN) || !reflect.DeepEqual(memT, wantT) {
		t.Fatalf("ReadProfileCSV = (%q, %v, %v), want (%q, %v)", memN, memT, err, wantN, wantT)
	}
}

func TestFastCSVReaderQuoteErrors(t *testing.T) {
	for _, body := range []string{
		"seq,name,time_us\n0,a\"b,1\n",            // bare quote
		"seq,name,time_us\n0,\"open,1\n1,b,2\n",   // never closed
		"seq,name,time_us\n0,\"a\",1,extra\n",     // four fields
		"seq,name,time_us\n0,\"a\",x\n",           // bad time after hand-off
		"\"seq\",name,time\n0,a,1\n",              // quoted header, wrong column
		"seq,name,time_us\n0,\"a\",1\n1,b\n",      // short row after hand-off
		"seq,name,time_us\n0,\"a\",1\n1,b\"c,2\n", // bare quote after hand-off
	} {
		if _, _, err := ReadProfileCSV(strings.NewReader(body)); err == nil {
			t.Errorf("ReadProfileCSV(%q) = nil error", body)
		}
	}
	names, times, err := ReadProfileCSV(strings.NewReader("\"seq\",\"name\",time_us\n0,a,1\n"))
	if err != nil || len(names) != 1 || names[0] != "a" || times[0] != 1 {
		t.Fatalf("quoted header: (%q, %v, %v)", names, times, err)
	}
}

// TestScanInternsNames pins the interning contract of the string path:
// equal names share one string up to the cap, and past the cap rows are
// still decoded correctly.
func TestScanInternsNames(t *testing.T) {
	var b strings.Builder
	b.WriteString("seq,name,time_us\n")
	const distinct = maxInternedNames + 50
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < distinct; i++ {
			fmt.Fprintf(&b, "%d,kernel_%d,%d\n", i, i, i)
		}
	}
	names, times, err := ReadProfileCSV(strings.NewReader(b.String()))
	if err != nil || len(names) != 2*distinct {
		t.Fatalf("decoded %d rows, err %v", len(names), err)
	}
	for i := 0; i < distinct; i++ {
		want := fmt.Sprintf("kernel_%d", i)
		if names[i] != want || names[distinct+i] != want || times[distinct+i] != float64(i) {
			t.Fatalf("row %d: %q / %q (%v)", i, names[i], names[distinct+i], times[distinct+i])
		}
		shared := unsafe.StringData(names[i]) == unsafe.StringData(names[distinct+i])
		if shared != (i < maxInternedNames) {
			t.Fatalf("name %d: shared=%v, cap %d", i, shared, maxInternedNames)
		}
	}
}

// TestReadProfileCSVAllocs pins the batch decoder's allocation count: for
// a fixed name set it does not depend on the row count.
func TestReadProfileCSVAllocs(t *testing.T) {
	profile := func(rows int) string {
		var b strings.Builder
		b.WriteString("seq,name,time_us\n")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "%d,kernel_%d,%d.5\n", i, i%24, i)
		}
		return b.String()
	}
	allocs := func(body string) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := ReadProfileCSV(strings.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(profile(2000)), allocs(profile(100000))
	if large > small+2 || large > 64 {
		t.Fatalf("ReadProfileCSV allocations grow with rows: %v at 2000 rows, %v at 100000", small, large)
	}
}

func TestFastCSVScannerEarlyStop(t *testing.T) {
	p := writeTempCSV(t, "seq,name,time_us\n0,a,1\n1,b,2\n2,c,3\n")
	count := 0
	if err := (FastCSVScanner{Path: p}).Scan(func(string, float64) bool {
		count++
		return count < 2
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("early stop scanned %d rows", count)
	}
}

func TestFastCSVScannerRescannable(t *testing.T) {
	p := writeTempCSV(t, "seq,name,time_us\n0,a,1\n1,b,2\n")
	s := FastCSVScanner{Path: p}
	n1, t1 := collect(t, s)
	n2, t2 := collect(t, s)
	if len(n1) != 2 || len(n2) != 2 || n1[0] != n2[0] || t1[1] != t2[1] {
		t.Fatal("second Scan differs from first")
	}
}

func TestParseProfileRecordErrors(t *testing.T) {
	cases := []string{
		"",                // empty
		"0",               // one field
		"0,a",             // two fields
		"0,a,1,extra",     // four fields
		"0,a,notanumber",  // bad float
		"0,a,1e",          // truncated float
		"0,\"unclosed,1",  // quote error
		"0,a,\"1\" trail", // csv extraneous text after quote
	}
	for _, c := range cases {
		if _, _, err := ParseProfileRecord([]byte(c)); err == nil {
			t.Fatalf("ParseProfileRecord(%q) = nil error", c)
		}
	}
	name, v, err := ParseProfileRecord([]byte("7,kern,42.5\r\n"))
	if err != nil || string(name) != "kern" || v != 42.5 {
		t.Fatalf("valid row parsed as (%q,%v,%v)", name, v, err)
	}
}

func TestFastCSVScannerHeaderErrors(t *testing.T) {
	for _, body := range []string{
		"",
		"wrong,header,here\n0,a,1\n",
		"seq,name\n",
	} {
		p := writeTempCSV(t, body)
		if err := (FastCSVScanner{Path: p}).Scan(func(string, float64) bool { return true }); err == nil {
			t.Fatalf("expected header error for %q", body)
		}
	}
}

func TestFastCSVScannerHugeLine(t *testing.T) {
	// A row far longer than the bufio window must spill, not corrupt.
	long := strings.Repeat("k", 3<<20)
	p := writeTempCSV(t, "seq,name,time_us\n0,"+long+",9\n1,b,2\n")
	names, times := collect(t, FastCSVScanner{Path: p})
	if len(names) != 2 || names[0] != long || times[0] != 9 || names[1] != "b" {
		t.Fatalf("huge-line scan: %d rows, len(name0)=%d", len(names), len(names[0]))
	}
}

func TestScanBytesAllocFree(t *testing.T) {
	// Steady-state row decoding allocates nothing: names are yielded as
	// views into the read buffer.
	var rows []string
	for i := 0; i < 20000; i++ {
		rows = append(rows, "1,kernel_name_with_some_length,123.456\n")
	}
	body := "seq,name,time_us\n" + strings.Join(rows, "")
	p := writeTempCSV(t, body)

	allocs := testing.AllocsPerRun(3, func() {
		var n int
		if err := (FastCSVScanner{Path: p}).ScanBytes(func(name []byte, v float64) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != 20000 {
			t.Fatalf("scanned %d rows", n)
		}
	})
	// Per-scan setup (open file, bufio buffer, closure) is a handful of
	// allocations; the 20000 row decodes must contribute zero.
	if allocs > 10 {
		t.Fatalf("ScanBytes allocates %v per full scan (want setup-only)", allocs)
	}
}

package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
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

// fileReader opens path for one FastCSVReader pass; the file is closed when
// the test ends.
func fileReader(t *testing.T, path string) *FastCSVReader {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return NewFastCSVReader(f)
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

	gotN, gotT := collect(t, fileReader(t, writeTempCSV(t, body)))
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
// a fixed name set it does not depend on the row count, whether the profile
// is in memory or in a regular file, which is pre-sized from its size as an
// in-memory reader is from its length (to within 1.1× of its bytes). A pipe,
// whose length is unknown, decodes the same rows.
func TestReadProfileCSVAllocs(t *testing.T) {
	profile := func(rows int) string {
		var b strings.Builder
		b.WriteString("seq,name,time_us\n")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "%d,kernel_%d,%d.5\n", i, i%24, i)
		}
		return b.String()
	}
	fromMemory := func(body string) func() io.Reader {
		return func() io.Reader { return strings.NewReader(body) }
	}
	fromFile := func(body string) func() io.Reader {
		path := writeTempCSV(t, body)
		return func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}
	}
	read := func(open func() io.Reader) {
		if _, _, err := ReadProfileCSV(open()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(open func() io.Reader) float64 {
		return testing.AllocsPerRun(5, func() { read(open) })
	}
	bytesOf := func(open func() io.Reader) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read(open)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := profile(2000), profile(100000)
	for _, src := range []struct {
		name string
		open func(string) func() io.Reader
	}{{"memory", fromMemory}, {"file", fromFile}} {
		if s, l := allocs(src.open(small)), allocs(src.open(large)); l > s+2 || l > 64 {
			t.Errorf("ReadProfileCSV from %s: allocations grow with rows: %v at 2000 rows, %v at 100000", src.name, s, l)
		}
	}
	if mem, file := bytesOf(fromMemory(large)), bytesOf(fromFile(large)); file*10 > mem*11 {
		t.Errorf("ReadProfileCSV from a file allocates %d bytes, from memory %d: want within 1.1×", file, mem)
	}

	wantNames, wantTimes, err := ReadProfileCSV(strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	go func() {
		io.WriteString(pw, small)
		pw.Close()
	}()
	names, times, err := ReadProfileCSV(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(times, wantTimes) {
		t.Fatalf("ReadProfileCSV from a pipe decoded %d rows unlike the %d in memory", len(names), len(wantNames))
	}
}

func TestFastCSVScannerEarlyStop(t *testing.T) {
	p := writeTempCSV(t, "seq,name,time_us\n0,a,1\n1,b,2\n2,c,3\n")
	count := 0
	if err := fileReader(t, p).Scan(func(string, float64) bool {
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
	n1, t1 := collect(t, fileReader(t, p))
	n2, t2 := collect(t, fileReader(t, p))
	if len(n1) != 2 || len(n2) != 2 || n1[0] != n2[0] || t1[1] != t2[1] {
		t.Fatal("second read of the file differs from the first")
	}
}

// TestScanBytesRowErrors feeds each malformed row to the decoder production
// calls: as the one data row of a stream (plain rows through scanWindow,
// quoted ones through scanQuoted) and, when it holds no quote, to
// parsePlainRecord itself — the empty row included, which a stream skips as
// a blank line.
func TestScanBytesRowErrors(t *testing.T) {
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
	scan := func(row string) (name string, v float64, err error) {
		fr := NewFastCSVReader(strings.NewReader("seq,name,time_us\n" + row))
		err = fr.ScanBytes(func(b []byte, t float64) bool {
			name, v = string(b), t
			return true
		})
		return name, v, err
	}
	for _, c := range cases {
		if !strings.Contains(c, `"`) {
			if _, _, err := parsePlainRecord([]byte(c)); err == nil {
				t.Fatalf("parsePlainRecord(%q) = nil error", c)
			}
		}
		if c == "" {
			continue
		}
		if _, _, err := scan(c + "\n"); err == nil {
			t.Fatalf("ScanBytes over row %q = nil error", c)
		}
	}
	name, v, err := scan("7,kern,42.5\r\n")
	if err != nil || name != "kern" || v != 42.5 {
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
		if err := fileReader(t, p).Scan(func(string, float64) bool { return true }); err == nil {
			t.Fatalf("expected header error for %q", body)
		}
	}
}

func TestFastCSVScannerHugeLine(t *testing.T) {
	// A row far longer than the bufio window must spill, not corrupt.
	long := strings.Repeat("k", 3<<20)
	p := writeTempCSV(t, "seq,name,time_us\n0,"+long+",9\n1,b,2\n")
	names, times := collect(t, fileReader(t, p))
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
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var n int
		if err := NewFastCSVReader(f).ScanBytes(func(name []byte, v float64) bool {
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

// refScan is the decoder as encoding/csv and strconv alone would write it:
// the rows before the first error, and that error.
func refScan(data []byte) (names []string, times []float64, err error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = 3
	header, err := cr.Read()
	if err != nil {
		return nil, nil, err
	}
	if header[0] != "seq" || header[1] != "name" || header[2] != "time_us" {
		return nil, nil, fmt.Errorf("unexpected csv header %v", header)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return names, times, nil
		}
		if err != nil {
			return names, times, err
		}
		t, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return names, times, err
		}
		names = append(names, rec[1])
		times = append(times, t)
	}
}

// scanAll drains fr, keeping the rows yielded before any error.
func scanAll(fr *FastCSVReader) (names []string, times []float64, err error) {
	err = fr.ScanBytes(func(name []byte, v float64) bool {
		names = append(names, string(name))
		times = append(times, v)
		return true
	})
	return names, times, err
}

// chunkReader hands out at most n bytes per Read and hides the length.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// TestScanBytesWindowSplitting drives the window splitter through windows
// far smaller than the input, fed in pieces that do not line up with rows:
// every combination must yield the rows, and fail where, encoding/csv does.
func TestScanBytesWindowSplitting(t *testing.T) {
	long := strings.Repeat("k", 100) // longer than every window below but maxWindow
	bodies := map[string]string{
		"several full windows, a spilling line in the second": "seq,name,time_us\n" +
			strings.Repeat("5,attn_decode_l0,12.375\n6,mlp,9.5\r\n", maxWindow/32) +
			"7," + strings.Repeat("k", maxWindow+maxWindow/2) + ",8\n" +
			strings.Repeat("9,layer_norm,1.9181453074128947\n", maxWindow/16) + "10,last,7.",
		"straddle, CRLF, blanks, unterminated": "seq,name,time_us\n0,gemm,1.5\r\n\n1,softmax,2.25e-1\n\r\n\n" +
			strings.Repeat("2,layer_norm,1.9181453074128947\n3,a,4\r\n", 20) + "4,last,7.",
		"line longer than the window": "seq,name,time_us\n0,a,1\n1," + long + ",2\n2,b,3\n3," + long + ",4",
		"first quote in a later window": "seq,name,time_us\n" + strings.Repeat("0,plain,1\n", 12) +
			"1,\"two\nlines, \"\"q\"\"\",2\r\n2,after,3\n\n3,\"x\",4",
		"bare quote in a later window": "seq,name,time_us\n" + strings.Repeat("0,plain,1\n", 12) + "1,a\"b,2\n2,c,3\n",
		"short row":                    "seq,name,time_us\n" + strings.Repeat("0,plain,1\n", 9) + "\n1,short\n2,c,3\n",
		"four fields":                  "seq,name,time_us\n" + strings.Repeat("0,plain,1\n", 9) + "1,a,2,extra\n2,c,3\n",
		"bad time":                     "seq,name,time_us\n" + strings.Repeat("0,plain,1\n", 9) + "1,a,1e\n2,c,3\n",
		"cut after the second comma":   "seq,name,time_us\n0,a,1\n1,b,",
		"header only":                  "seq,name,time_us",
		"blank lines only after":       "seq,name,time_us\n\n\r\n\n",
	}
	for what, body := range bodies {
		data := []byte(body)
		wantN, wantT, wantErr := refScan(data)
		// The whole input as one window is the baseline the pieces must match.
		oneN, oneT, oneErr := scanAll(NewFastCSVReader(bytes.NewReader(data)))
		if !reflect.DeepEqual(oneN, wantN) || !reflect.DeepEqual(oneT, wantT) || (oneErr == nil) != (wantErr == nil) {
			t.Errorf("%s, one window: rows %q %v err %v; encoding/csv: %q %v err %v", what, oneN, oneT, oneErr, wantN, wantT, wantErr)
		}
		for _, window := range []int{16, 24, 64, maxWindow} {
			for _, piece := range []int{1, 7, 16, 1000} {
				fr := &FastCSVReader{br: bufio.NewReaderSize(&chunkReader{data, piece}, window)}
				gotN, gotT, err := scanAll(fr)
				if !reflect.DeepEqual(gotN, oneN) || !reflect.DeepEqual(gotT, oneT) || fmt.Sprint(err) != fmt.Sprint(oneErr) {
					t.Errorf("%s, window %d, %d-byte reads: rows %q %v err %v; one window: %q %v err %v",
						what, window, piece, gotN, gotT, err, oneN, oneT, oneErr)
				}
			}
		}
	}
}

// TestScanBytesErrorsNameTheLine pins the position a plain-path row error
// carries — the 1-based physical line, blank lines counted — whichever of
// the window and line-at-a-time paths meets the row, and that the wrapped
// error still matches.
func TestScanBytesErrorsNameTheLine(t *testing.T) {
	for _, tc := range []struct {
		body, want string
		fieldCount bool
	}{
		{"seq,name,time_us\n0,a,1\n\n1,short\n", "trace: profile row must have 3 fields (line 4)", true},
		{"\r\nseq,name,time_us\n0,a,1,extra\n", "trace: profile row must have 3 fields (line 3)", true},
		{"seq,name,time_us\n0,a,1\n1,b", "trace: profile row must have 3 fields (line 3)", true},
		{"seq,name,time_us\n0,a,1\n1,b,", `trace: parse time "": strconv.ParseFloat: parsing "": invalid syntax (line 3)`, false},
		{"seq,name,time_us\n0,a,x\n", `trace: parse time "x": strconv.ParseFloat: parsing "x": invalid syntax (line 2)`, false},
		{"seq,name,time_us\n0,a,1e999\n", `trace: parse time "1e999": strconv.ParseFloat: parsing "1e999": value out of range (line 2)`, false},
	} {
		for _, window := range []int{16, maxWindow} {
			fr := &FastCSVReader{br: bufio.NewReaderSize(&chunkReader{[]byte(tc.body), 5}, window)}
			_, _, err := scanAll(fr)
			if err == nil || err.Error() != tc.want || errors.Is(err, ErrFieldCount) != tc.fieldCount {
				t.Errorf("window %d, %q: error %v, want %q (ErrFieldCount: %v)", window, tc.body, err, tc.want, tc.fieldCount)
			}
		}
	}
}

// pipeReader delivers one prepared chunk per Read, like a pipe whose
// writer flushes now and then, and checks at every Read that the decoder
// has already yielded each row whose newline it was given: a row must
// never wait for the window to fill.
type pipeReader struct {
	t        *testing.T
	chunks   []string
	newlines int // delivered so far, the header's included
	yielded  int
}

func (p *pipeReader) Read(b []byte) (int, error) {
	if p.yielded < p.newlines-1 {
		p.t.Errorf("Read issued with %d rows yielded of %d delivered", p.yielded, p.newlines-1)
	}
	if len(p.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.chunks[0])
	p.newlines += strings.Count(p.chunks[0][:n], "\n")
	p.chunks = p.chunks[1:]
	return n, nil
}

func TestScanBytesYieldsBeforeNextRead(t *testing.T) {
	p := &pipeReader{t: t, chunks: []string{
		"seq,name,time_us\n",
		"0,a,1\n",
		"1,b,2\n",
		"2,c,3\n3,d,4\n4,e", // two rows and the start of a third
		",5\n",
		"5,f,6\n6,g,7\n",
		"7,h,8", // unterminated: yielded at end of stream
	}}
	err := NewFastCSVReader(p).ScanBytes(func([]byte, float64) bool { p.yielded++; return true })
	if err != nil || p.yielded != 8 {
		t.Fatalf("scanned %d rows, err %v", p.yielded, err)
	}
}

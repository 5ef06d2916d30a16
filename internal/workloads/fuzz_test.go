package workloads

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"stemroot/internal/rng"
	"stemroot/internal/trace"
)

// refReadProfileCSV is the encoding/csv reading of a profile — the decoder
// the repository shipped before trace.FastCSVReader became the only one,
// kept here as the oracle the fast decoder is held to.
func refReadProfileCSV(in io.Reader) (names []string, times []float64, err error) {
	cr := csv.NewReader(in)
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
			return nil, nil, err
		}
		t, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, rec[1])
		times = append(times, t)
	}
}

// FuzzFromProfile hardens the profile ingestion path end to end: arbitrary
// CSV bytes are parsed with the encoding/csv reference and with the
// byte-level decoder (streaming and batch entry points), which must agree
// on accept/reject and bit-identically on every accepted row — quoted,
// multi-line-quoted, bare-quote, CRLF, blank-line, unterminated and
// wrong-field-count inputs included — and whatever rows come out must build
// a workload without panicking.
func FuzzFromProfile(f *testing.F) {
	f.Add([]byte("seq,name,time_us\n0,gemm,1.5\n1,relu,2\n"))
	f.Add([]byte("seq,name,time_us\r\n0,a,1e3\r\n"))
	f.Add([]byte("seq,name,time_us\n0,\"quoted,name\",3\n"))
	f.Add([]byte("seq,name,time_us\n\n1,b,2\n"))
	f.Add([]byte("seq,name,time_us\n0,a,NaN\n"))
	f.Add([]byte("seq,name,time_us\n0,a\n"))
	f.Add([]byte("seq,name,time_us\n0,a,1,extra\n"))
	f.Add([]byte("seq,name,time_us\n0," + strings.Repeat("x", 4096) + ",7\n"))
	f.Add([]byte("not,a,header\n0,a,1\n"))
	f.Add([]byte(""))
	f.Add([]byte("seq,name,time_us\n0,a,1")) // no trailing newline
	f.Add([]byte("seq,name,time_us\n0,\"two\nlines\",3\n1,b,4\n"))
	f.Add([]byte("seq,name,time_us\n" + strings.Repeat("0,plain,1\n", 10000) + "1,\"late \"\"quote\"\"\n\",2\r\n2,b,3"))
	f.Add([]byte("\r\n\"seq\",name,time_us\n0,a\"b,1\n"))
	f.Add([]byte("seq,name,time_us\n0,a,1\r"))

	f.Fuzz(func(t *testing.T, data []byte) {
		refNames, refTimes, refErr := refReadProfileCSV(bytes.NewReader(data))

		var names []string
		var times []float64
		err := trace.NewFastCSVReader(bytes.NewReader(data)).ScanBytes(
			func(name []byte, v float64) bool {
				names = append(names, string(name))
				times = append(times, v)
				return true
			})
		sameRows(t, "ScanBytes", data, names, times, err, refNames, refTimes, refErr)

		batchNames, batchTimes, err := trace.ReadProfileCSV(bytes.NewReader(data))
		sameRows(t, "ReadProfileCSV", data, batchNames, batchTimes, err, refNames, refTimes, refErr)

		// Whatever rows were produced (all of them, or those before the
		// first bad one) must reconstruct into a workload without
		// panicking, and deterministically.
		if len(names) == 0 || len(names) > 2000 {
			return
		}
		for _, v := range times {
			if v != v || v < 0 { // NaN or negative measured times are rejected upstream
				return
			}
		}
		w1 := FromProfile("fuzz", names, times, 7)
		w2 := FromProfile("fuzz", names, times, 7)
		if w1.Len() != len(names) || w2.Len() != w1.Len() {
			t.Fatalf("FromProfile lost invocations: %d of %d", w1.Len(), len(names))
		}
	})
}

// sameRows fails unless the decoder under test and the reference agree on
// accept/reject and, when both accept, on every row.
func sameRows(t *testing.T, what string, data []byte, names []string, times []float64, err error,
	refNames []string, refTimes []float64, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s error %v, encoding/csv error %v\ninput: %q", what, err, refErr, data)
	}
	if err != nil {
		return
	}
	if len(names) != len(refNames) || len(times) != len(refTimes) {
		t.Fatalf("%s decoded %d rows, encoding/csv %d\ninput: %q", what, len(names), len(refNames), data)
	}
	for i := range refNames {
		if names[i] != refNames[i] || math.Float64bits(times[i]) != math.Float64bits(refTimes[i]) {
			t.Fatalf("%s row %d: (%q,%v), encoding/csv (%q,%v)\ninput: %q",
				what, i, names[i], times[i], refNames[i], refTimes[i], data)
		}
	}
}

// TestProfileDecoderMatchesCSVOnGeneratedRows runs the same differential
// check over profiles assembled row by row from the cases byte-mutation
// fuzzing rarely composes: quoted names holding commas, escaped quotes and
// newlines, bare quotes, "\r\n" and bare "\r" line ends, blank lines, short
// and long rows, unparsable times — most rows well-formed, so a quote hands
// off mid-stream with valid rows on both sides of it.
func TestProfileDecoderMatchesCSVOnGeneratedRows(t *testing.T) {
	pick := func(r *rng.Rand, common []string, rare []string) string {
		if r.Intn(40) == 0 {
			return rare[r.Intn(len(rare))]
		}
		return common[r.Intn(len(common))]
	}
	names := []string{"gemm", "layer norm", "", "\xff", `"q,x"`, "\"two\nlines\"", `"esc""q"`, `"plain"`}
	badNames := []string{`bare"q`, `"open`, `"a"b`, "x,y"}
	timesOK := []string{"1", ".5", "1e3", `"2"`, "NaN", "-0"}
	badTimes := []string{"x", " 1", "", "1,2"}
	ends := []string{"\n", "\n", "\r\n", "\n\n", "\r\n\r\n"}
	badEnds := []string{"\r", "\r\r\n", ""}
	headers := []string{"seq,name,time_us", `"seq",name,time_us`, "\nseq,name,time_us"}
	badHeaders := []string{"seq,name,time", "", `seq,"name,time_us`}

	r := rng.New(12)
	accepted, quoted := 0, 0
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		b.WriteString(pick(r, headers, badHeaders))
		b.WriteString(pick(r, ends, badEnds))
		for n := r.Intn(12); n > 0; n-- {
			b.WriteString("7," + pick(r, names, badNames) + "," + pick(r, timesOK, badTimes))
			b.WriteString(pick(r, ends, badEnds))
		}
		data := []byte(strings.TrimSuffix(b.String(), pick(r, []string{"", "\n"}, []string{"\r\n"})))
		refNames, refTimes, refErr := refReadProfileCSV(bytes.NewReader(data))
		gotNames, gotTimes, err := trace.ReadProfileCSV(bytes.NewReader(data))
		sameRows(t, "ReadProfileCSV", data, gotNames, gotTimes, err, refNames, refTimes, refErr)
		if refErr == nil && len(refNames) > 0 {
			accepted++
			if bytes.IndexByte(data, '"') >= 0 {
				quoted++
			}
		}
	}
	if accepted < 2000 || quoted < 1000 {
		t.Fatalf("generator too hostile to test anything: %d profiles accepted, %d of them quoted", accepted, quoted)
	}
}

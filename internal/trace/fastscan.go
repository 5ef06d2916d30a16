package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unsafe"
)

// fastscan.go is the profile-CSV decoder — the only one in the package.
// The hot path, a plain "seq,name,time_us" row with no quoting, is parsed
// at the []byte level: no strings.Split, no intermediate string
// conversions, no per-row heap allocation; rows are split out of the
// buffered window a window at a time (scanWindow) and their time field is
// converted by the exact number path of atof.go. Quoting is encoding/csv's
// job: the first line that contains a '"' is handed to encoding/csv
// together with the rest of the stream (a quoted field may span lines), so
// the set of accepted inputs and the decoded rows equal encoding/csv's on
// every input, and a stream without quotes never leaves the fast path.

// ErrFieldCount reports a data row whose comma count is not exactly three
// fields.
var ErrFieldCount = errors.New("trace: profile row must have 3 fields")

// maxInternedNames caps the per-reader name table of the string-yielding
// Scan: past it every new name costs one allocation per row, so a stream
// of all-distinct names cannot grow the table without bound.
const maxInternedNames = 4096

// maxWindow is the bufio window of a reader of unknown length. Every reader
// allocates and zeroes one, so it is no larger than decoding needs:
// BenchmarkScanBytes is as fast through 64 KiB as through 1 MiB (EXPERIMENTS,
// "Re-plan scratch"), and only a line longer than the window spills.
const maxWindow = 64 << 10

var profileHeader = []byte(strings.TrimSuffix(ProfileHeader, "\n"))

// parsePlainRecord decodes one "seq,name,time_us" row known to hold no quote
// and no line terminator, in place: the returned name aliases line. The seq
// field is not interpreted.
func parsePlainRecord(line []byte) (name []byte, timeUS float64, err error) {
	c1 := bytes.IndexByte(line, ',')
	if c1 < 0 {
		return nil, 0, ErrFieldCount
	}
	rest := line[c1+1:]
	c2 := bytes.IndexByte(rest, ',')
	if c2 < 0 {
		return nil, 0, ErrFieldCount
	}
	field := rest[c2+1:]
	// ParseFloat does not retain its argument, so a no-copy view is safe.
	t, err := parseTime(unsafe.String(unsafe.SliceData(field), len(field)))
	if err != nil {
		// No number holds a comma, so a fourth field always lands here.
		if bytes.IndexByte(field, ',') >= 0 {
			return nil, 0, ErrFieldCount
		}
		return nil, 0, err
	}
	return rest[:c2], t, nil
}

// parseTime is strconv's ParseFloat with the exact fast path of atof.go in
// front: what parseDecimal does not handle, strconv decides.
func parseTime(field string) (float64, error) {
	if t, ok := parseDecimal(field); ok {
		return t, nil
	}
	t, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: parse time %q: %w", field, err)
	}
	return t, nil
}

// quotedReader is the encoding/csv side of the decoder, configured for the
// three-field profile shape.
func quotedReader(r io.Reader) *csv.Reader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	cr.ReuseRecord = true
	return cr
}

// trimLineEnd strips one trailing "\n" or "\r\n" (and the bare "\r" that
// encoding/csv drops before EOF).
func trimLineEnd(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// FastCSVReader streams profile rows from an io.Reader. It is single-shot:
// the reader is consumed.
type FastCSVReader struct {
	br      *bufio.Reader
	line    int               // physical lines consumed on the plain path
	scratch []byte            // spill buffer for lines longer than the bufio window
	names   map[string]string // Scan's interning table, at most maxInternedNames
}

// NewFastCSVReader wraps r. A reader that reports its length (bytes.Reader,
// bytes.Buffer, strings.Reader, a regular file) gets a window no larger than
// its content.
func NewFastCSVReader(r io.Reader) *FastCSVReader {
	size := maxWindow
	if n, ok := readerLen(r); ok && n < size {
		size = n
	}
	return &FastCSVReader{br: bufio.NewReaderSize(r, size)}
}

// readerLen reports the unread byte count of an in-memory reader or of a
// regular file: its size less the current offset. A pipe, a terminal or any
// other reader reports none.
func readerLen(r io.Reader) (int, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return r.Len(), true
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil || off > fi.Size() {
			return 0, false
		}
		return int(fi.Size() - off), true
	}
	return 0, false
}

// readLine returns the next line including its terminator, valid until the
// next call. Lines longer than the buffer are accumulated into the spill
// scratch (allocating only then). Returns io.EOF with no data at end.
func (fr *FastCSVReader) readLine() ([]byte, error) {
	line, err := fr.br.ReadSlice('\n')
	if err == nil {
		return line, nil
	}
	if err == io.EOF {
		if len(line) == 0 {
			return nil, io.EOF
		}
		return line, nil // final unterminated line
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	fr.scratch = append(fr.scratch[:0], line...)
	for {
		line, err = fr.br.ReadSlice('\n')
		fr.scratch = append(fr.scratch, line...)
		switch err {
		case nil:
			return fr.scratch, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			return fr.scratch, nil
		default:
			return nil, err
		}
	}
}

// ScanBytes yields every (name, time) row in order. The name slice is only
// valid during the yield call — the zero-alloc contract: callers that need
// to retain it must copy (e.g. via an interning symbol table). Blank lines
// are skipped, matching encoding/csv. A row error on the plain path names
// its 1-based physical line.
func (fr *FastCSVReader) ScanBytes(yield func(name []byte, timeUS float64) bool) error {
	inHeader := true
	for {
		if !inHeader {
			if done, err := fr.scanWindow(yield); done {
				return err
			}
		}
		line, err := fr.readLine()
		if err != nil {
			return scanEnd(err, inHeader)
		}
		fr.line++
		if bytes.IndexByte(line, '"') >= 0 {
			return scanQuoted(io.MultiReader(bytes.NewReader(line), fr.br), inHeader, yield)
		}
		line = trimLineEnd(line)
		if len(line) == 0 {
			continue
		}
		if inHeader {
			if !bytes.Equal(line, profileHeader) {
				return fmt.Errorf("trace: unexpected csv header %q", line)
			}
			inHeader = false
			continue
		}
		name, t, err := parsePlainRecord(line)
		if err != nil {
			return fr.lineError(err)
		}
		if !yield(name, t) {
			return nil
		}
	}
}

// scanWindow decodes the complete lines already buffered, up to the first
// quote, straight out of the bufio window: one quote check per window and
// one newline search per row instead of a ReadSlice per row. It never
// reads, so on a pipe a row is yielded as soon as its newline is buffered.
// What it leaves — the line holding a quote, a partial last line, a line
// longer than the window — is readLine's. done reports that the scan is
// over (a row error or a yield that returned false).
func (fr *FastCSVReader) scanWindow(yield func(name []byte, timeUS float64) bool) (done bool, err error) {
	win, _ := fr.br.Peek(fr.br.Buffered()) // what is buffered cannot fail to peek
	if q := bytes.IndexByte(win, '"'); q >= 0 {
		win = win[:q]
	}
	used := 0
	for !done {
		nl := bytes.IndexByte(win[used:], '\n')
		if nl < 0 {
			break
		}
		line := win[used : used+nl]
		used += nl + 1
		fr.line++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		name, t, perr := parsePlainRecord(line)
		if perr != nil {
			done, err = true, fr.lineError(perr)
		} else {
			done = !yield(name, t)
		}
	}
	fr.br.Discard(used) // used ≤ Buffered: cannot fail
	return done, err
}

// lineError places a plain-path row error at the line just read.
func (fr *FastCSVReader) lineError(err error) error {
	return fmt.Errorf("%w (line %d)", err, fr.line)
}

// scanEnd is a scan's result once reading fails: running out of rows after
// the header is how every good scan ends.
func scanEnd(err error, inHeader bool) error {
	switch {
	case inHeader:
		return fmt.Errorf("trace: read csv header: %w", err)
	case err == io.EOF:
		return nil
	default:
		return fmt.Errorf("trace: read csv row: %w", err)
	}
}

// scanQuoted decodes the rest of a stream, from its first quoted line on,
// with encoding/csv.
func scanQuoted(r io.Reader, inHeader bool, yield func(name []byte, timeUS float64) bool) error {
	cr := quotedReader(r)
	for {
		rec, err := cr.Read()
		if err != nil {
			return scanEnd(err, inHeader)
		}
		if inHeader {
			if rec[0] != "seq" || rec[1] != "name" || rec[2] != "time_us" {
				return fmt.Errorf("trace: unexpected csv header %v", rec)
			}
			inHeader = false
			continue
		}
		t, err := parseTime(rec[2])
		if err != nil {
			return err
		}
		if !yield([]byte(rec[1]), t) {
			return nil
		}
	}
}

// Scan is ScanBytes with string names, interned per reader: a profile
// repeats a few dozen kernel names over all its rows, so the steady state
// allocates one string per distinct name, not one per row.
func (fr *FastCSVReader) Scan(yield func(name string, timeUS float64) bool) error {
	if fr.names == nil {
		fr.names = make(map[string]string)
	}
	return fr.ScanBytes(func(b []byte, t float64) bool {
		name, ok := fr.names[string(b)] // non-allocating lookup
		if !ok {
			name = string(b)
			if len(fr.names) < maxInternedNames {
				fr.names[name] = name
			}
		}
		return yield(name, t)
	})
}

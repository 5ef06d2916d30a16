package trace

import (
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// rowenc.go is the profile-CSV encoder — the write-side twin of
// fastscan.go and the only one in the repository. A row is
// "seq,name,time_us\n" with the time in strconv's shortest round-trip form
// ('g', -1) and the name quoted exactly when encoding/csv would quote it,
// so the bytes equal what csv.Writer and strconv produce for the same
// three fields (FuzzRowEncoder holds it to that).

// ProfileHeader is the first line of every profile CSV.
const ProfileHeader = "seq,name,time_us\n"

// maxRowOverhead bounds the bytes of a row beyond its name field:
// a sign and 19 digits of sequence number, two commas, the longest
// shortest-form float64 ("-2.2250738585072014e-308") and the newline.
const maxRowOverhead = 20 + 1 + 1 + 24 + 1

// MaxRowLen bounds the length of any row AppendRow renders for name, so a
// buffer sized by it never regrows.
func MaxRowLen(name string) int {
	n := len(name)
	if fieldNeedsQuotes(name) {
		n += 2 + strings.Count(name, `"`)
	}
	return n + maxRowOverhead
}

// RowEncoder appends profile-CSV rows to a byte slice without allocating.
// Consecutive sequence numbers — every writer's case — are rendered by
// advancing a decimal counter in place rather than by a division loop per
// row. The zero value is ready to use; a RowEncoder must not be shared
// between goroutines.
type RowEncoder struct {
	seq    int      // the number digits holds, when n > 0
	n      int      // length of the rendered number; 0 = nothing rendered
	digits [20]byte // the number, right-aligned
}

// AppendRow appends the row (seq, name, timeUS) to dst.
func (e *RowEncoder) AppendRow(dst []byte, seq int, name string, timeUS float64) []byte {
	if e.n == 0 || seq != e.seq {
		e.render(seq)
	}
	dst = append(dst, e.digits[len(e.digits)-e.n:]...)
	e.advance()
	dst = append(dst, ',')
	dst = appendField(dst, name)
	dst = append(dst, ',')
	dst = appendTime(dst, timeUS)
	return append(dst, '\n')
}

func (e *RowEncoder) render(seq int) {
	var tmp [20]byte
	s := strconv.AppendInt(tmp[:0], int64(seq), 10)
	e.seq, e.n = seq, len(s)
	copy(e.digits[len(e.digits)-len(s):], s)
}

// advance steps the counter to seq+1, where that is a matter of digits.
func (e *RowEncoder) advance() {
	if e.seq < 0 || e.seq == math.MaxInt {
		e.n = 0 // the next row renders afresh
		return
	}
	e.seq++
	lo := len(e.digits) - e.n
	for i := len(e.digits) - 1; i >= lo; i-- {
		if e.digits[i] != '9' {
			e.digits[i]++
			return
		}
		e.digits[i] = '0'
	}
	e.digits[lo-1] = '1' // 99…9 + 1: MaxInt has 19 digits, so lo ≥ 2 here
	e.n++
}

// appendField appends one CSV field the way encoding/csv's Writer writes it
// with its default settings: as is, unless fieldNeedsQuotes.
func appendField(dst []byte, field string) []byte {
	if !fieldNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			break
		}
		dst = append(dst, field[:i]...)
		dst = append(dst, '"', '"')
		field = field[i+1:]
	}
	dst = append(dst, field...)
	return append(dst, '"')
}

// fieldNeedsQuotes is encoding/csv's rule of the same name for Comma ',':
// a field is quoted when it holds a comma, a quote or a line break, begins
// with a space, or is the PostgreSQL end-of-data marker. The empty field
// is written bare.
func fieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		if quoteTrigger[field[i]] {
			return true
		}
	}
	if c := field[0]; c < utf8.RuneSelf {
		return c == ' ' || '\t' <= c && c <= '\r' // unicode.IsSpace below U+0080
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

var quoteTrigger = [256]bool{'\n': true, '\r': true, '"': true, ',': true}

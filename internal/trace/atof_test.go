package trace

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// TestPow10TabMatchesBig re-derives every table entry with math/big: the
// top 128 bits of 10^q, truncated, and floor(log2(10^q)).
func TestPow10TabMatchesBig(t *testing.T) {
	ten := big.NewInt(10)
	for q := -maxPow10; q <= maxPow10; q++ {
		// z = floor(10^q · 2^512): wide enough that 128 bits survive at q = -64.
		z := new(big.Int).Lsh(big.NewInt(1), 512)
		pw := new(big.Int).Exp(ten, big.NewInt(int64(max(q, -q))), nil)
		if q >= 0 {
			z.Mul(z, pw)
		} else {
			z.Quo(z, pw)
		}
		n := z.BitLen()
		z.Rsh(z, uint(n-128))
		want := pow10{
			hi:  new(big.Int).Rsh(z, 64).Uint64(),
			lo:  z.Uint64(), // low 64 bits
			exp: n - 1 - 512,
		}
		if got := pow10Tab[q+maxPow10]; got != want {
			t.Errorf("10^%d: table %#x:%#x exp %d, math/big %#x:%#x exp %d",
				q, got.hi, got.lo, got.exp, want.hi, want.lo, want.exp)
		}
	}
}

// checkParseDecimal is the fast path's whole contract: handled ⇒ strconv
// accepts the field and returns the same 64 bits.
func checkParseDecimal(t *testing.T, s string) (handled bool) {
	t.Helper()
	got, ok := parseDecimal(s)
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parseDecimal(%q) = %v, strconv rejects it: %v", s, got, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseDecimal(%q) = %v (%#x), strconv %v (%#x)",
			s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return true
}

// parseTimeSeeds are the edges of the fast path: both ends of float64's
// range, the 2^53 and 19-digit boundaries, ties, every malformed shape, and
// exponents at and one past both table ends.
var parseTimeSeeds = []string{
	"0", "1", "1.5", "123.456", "1.9181453074128947", "2.25e-1", "1E5", "1e+5",
	"1e23", "9007199254740991", "9007199254740992", "9007199254740993", "9007199254740995",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "4.9e-324", "1.7976931348623157e308", "1e309", "1e-400",
	"1234567890123456789", "9999999999999999999", "12345678901234567890", "1.2345678901234567890",
	"0.00000000000000000001234567890123456789", "00000000000000000000001", "0.000000000000000000000",
	"-0", "+0", "-0.0", "-0e5", "0e99999", "+.5", "-.5", "5.", ".", "+", "-", "", "e5", ".e5", "1e", "1e+", "1e-",
	"0x1p-2", "1_0", "Inf", "-inf", "nan", "NaN", "infinity", "1,2", " 1", "1 ", "1.2.3", "1e5e5", "1e5.0", "--1",
	"1e64", "1e65", "1e-64", "1e-65", "1234567890123456789e64", "1234567890123456789e65",
	"1.234567890123456789e-46", "1.234567890123456789e-47", "1e00000000000000000005", "1e10000", "1e99999999999999999999",
	"12345678", "123456789", "1234567.8", "12345678.12345678", "1234567a", "12345678a",
}

func TestParseDecimalSeeds(t *testing.T) {
	handled := map[string]bool{}
	for _, s := range parseTimeSeeds {
		handled[s] = checkParseDecimal(t, s)
	}
	for _, s := range []string{"1.9181453074128947", "123.456", "-0", "+.5", "5.", "1e64", "1e-64",
		"1234567890123456789e64", "0.00000000000000000001234567890123456789"} {
		if !handled[s] {
			t.Errorf("parseDecimal(%q) fell back; it is inside the fast path's grammar", s)
		}
	}
	// 1e23 and 2^53+1 lie exactly between two floats: Eisel–Lemire's tie exit.
	for _, s := range []string{"", ".", "e5", "1e", "1e+", "0x1p-2", "1_0", "Inf", "nan", "1e65", "1e-65",
		"12345678901234567890", "1e23", "9007199254740993", "4.9e-324", "1e309", " 1", "1 ", "1,2"} {
		if handled[s] {
			t.Errorf("parseDecimal(%q) handled; it must fall back to strconv", s)
		}
	}
	if f, ok := parseDecimal("-0"); !ok || !math.Signbit(f) || f != 0 {
		t.Errorf("parseDecimal(-0) = %v, %v; want -0", f, ok)
	}
}

// TestParseDecimalMatchesStrconv is the differential test over formatted
// values: every verb and precision a profile writer might use, over random
// magnitudes and random bit patterns.
func TestParseDecimalMatchesStrconv(t *testing.T) {
	n := 300000
	if testing.Short() {
		n = 30000
	}
	r := rand.New(rand.NewSource(15))
	fast, total := 0, 0
	for i := 0; i < n; i++ {
		// Any mantissa against every table entry and one step past each end.
		total++
		if checkParseDecimal(t, fmt.Sprintf("%de%d", r.Uint64()%1e19, r.Intn(2*maxPow10+3)-maxPow10-1)) {
			fast++
		}
		var v float64
		switch i % 3 {
		case 0: // kernel-time-like magnitudes
			v = math.Exp(r.NormFloat64()*6 + 3)
		case 1: // any finite bit pattern
			v = math.Float64frombits(r.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		case 2: // short decimals
			v = float64(r.Intn(1e7)) / math.Pow10(r.Intn(8))
		}
		prec := r.Intn(21) - 1 // -1 is shortest round-trip
		for _, verb := range []byte{'g', 'e', 'f'} {
			if verb == 'f' && math.Abs(v) > 1e25 {
				continue
			}
			total++
			if checkParseDecimal(t, strconv.FormatFloat(v, verb, prec, 64)) {
				fast++
			}
		}
	}
	t.Logf("%d of %d fields took the fast path", fast, total)
	if fast < total/2 {
		t.Fatalf("only %d of %d fields took the fast path", fast, total)
	}
}

// FuzzParseTime holds the fast path to strconv on arbitrary bytes, and
// parseTime (fast path + fallback) to strconv's accept/reject set.
func FuzzParseTime(f *testing.F) {
	for _, s := range parseTimeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := string(b)
		checkParseDecimal(t, s)
		got, gotErr := parseTime(s)
		want, wantErr := strconv.ParseFloat(s, 64)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("parseTime(%q) error %v, strconv error %v", s, gotErr, wantErr)
		}
		if gotErr == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseTime(%q) = %v, strconv %v", s, got, want)
		}
	})
}

var sinkFloat float64

// BenchmarkParseTime compares the fast path with strconv.ParseFloat on the
// field shape of a serving trace: 17 significant digits, mantissa ≥ 2^53.
func BenchmarkParseTime(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	fields := make([]string, 1024)
	for i := range fields {
		fields[i] = strconv.FormatFloat(math.Exp(r.NormFloat64()*2+3), 'g', -1, 64)
	}
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, ok := parseDecimal(fields[i%len(fields)])
			if !ok {
				b.Fatalf("fell back on %q", fields[i%len(fields)])
			}
			sinkFloat = f
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkFloat, _ = strconv.ParseFloat(fields[i%len(fields)], 64)
		}
	})
}

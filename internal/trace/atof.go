package trace

import (
	"math"
	"math/bits"
)

// atof.go is the number path of the profile decoder: an exact
// decimal→float64 conversion for the plain fields a profile holds. It
// either returns the correctly rounded float64 — the same 64 bits
// strconv's ParseFloat returns, since correct rounding is unique — or reports
// "not handled", and the caller falls back to strconv. It never rejects an
// input itself, so what the decoder accepts and the text of its errors are
// strconv's.

// maxPow10 bounds the decimal exponent of the Eisel–Lemire path. Nineteen
// digits times 10^±64 is far inside float64's normal range, so that path
// meets neither overflow nor subnormals.
const maxPow10 = 64

// maxDigits is how many significant digits always fit a uint64 mantissa.
const maxDigits = 19

// pow10 is 10^q to 128 bits: hi:lo are the top 128 bits of its binary
// expansion, truncated, with bit 127 set; exp is floor(log2(10^q)).
type pow10 struct {
	hi, lo uint64
	exp    int
}

// pow10Tab[q+maxPow10] approximates 10^q from below.
var pow10Tab = buildPow10Tab()

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// buildPow10Tab derives the table with exact multi-word integer arithmetic
// (a few microseconds, once): 10^q = 5^q·2^q, so only powers of five are
// computed. 5^64 < 2^149 fits three words; 5^-n is floor(2^319/5^n), reached
// by n exact divisions by five, whose top 128 bits are the truncation of
// the real quotient because floor(floor(x/a)/b) = floor(x/(a·b)).
func buildPow10Tab() (tab [2*maxPow10 + 1]pow10) {
	pos := []uint64{1, 0, 0} // 5^q, little-endian words
	for q := 0; q <= maxPow10; q++ {
		tab[maxPow10+q] = top128(pos, q)
		var carry uint64
		for i := range pos {
			hi, lo := bits.Mul64(pos[i], 5)
			lo, c := bits.Add64(lo, carry, 0)
			pos[i], carry = lo, hi+c
		}
	}
	neg := []uint64{0, 0, 0, 0, 1 << 63} // floor(2^319 / 5^n)
	for n := 1; n <= maxPow10; n++ {
		var rem uint64
		for i := len(neg) - 1; i >= 0; i-- {
			neg[i], rem = bits.Div64(rem, neg[i], 5)
		}
		tab[maxPow10-n] = top128(neg, -319-n)
	}
	return tab
}

// top128 truncates the integer w (little-endian words), scaled by 2^scale,
// to a pow10.
func top128(w []uint64, scale int) pow10 {
	n := len(w)
	for w[n-1] == 0 {
		n--
	}
	var a [3]uint64 // the top three words, most significant first
	for i := 0; i < 3 && i < n; i++ {
		a[i] = w[n-1-i]
	}
	s := bits.LeadingZeros64(a[0])
	return pow10{
		hi:  a[0]<<s | a[1]>>(64-s),
		lo:  a[1]<<s | a[2]>>(64-s),
		exp: 64*n - s - 1 + scale,
	}
}

// parseDecimal converts [+-]digits[.digits][(e|E)[+-]digits] with at most
// maxDigits significant digits. ok is false for everything else — longer
// mantissas, exponents beyond the table, inf/nan, hex floats, underscores,
// an empty field, stray bytes, and the cases Eisel–Lemire cannot decide —
// which is not a verdict on the input, only "ask strconv".
func parseDecimal(s string) (f float64, ok bool) {
	i := 0
	neg := false
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		i = 1
	}
	first := i
	i, mant := scanDigits(s, i, 0)
	nd, exp10 := i-first, 0
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		i, mant = scanDigits(s, i, mant)
		nd += i - frac
		exp10 = frac - i
	}
	if nd == 0 {
		return 0, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '-' || s[i] == '+') {
			eneg = s[i] == '-'
			i++
		}
		e, estart := 0, i
		// Past 9999 the remaining digits are left unread and fail the
		// end-of-field check below.
		for i < len(s) && s[i]-'0' <= 9 && e < 10000 {
			e = e*10 + int(s[i]-'0')
			i++
		}
		if i == estart {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if i != len(s) {
		return 0, false
	}
	if nd > maxDigits {
		// mant may have wrapped — unless the excess is leading zeros,
		// which added nothing to it.
		for j := first; j < len(s) && (s[j] == '0' || s[j] == '.'); j++ {
			if s[j] == '0' {
				nd--
			}
		}
		if nd > maxDigits {
			return 0, false
		}
	}

	switch {
	case mant == 0:
		// Zero whatever the exponent.
	case mant < 1<<53 && -22 <= exp10 && exp10 <= 22:
		// Clinger: both operands are exact, so one IEEE operation rounds
		// the true value once.
		f = float64(mant)
		if exp10 < 0 {
			f /= exactPow10[-exp10]
		} else {
			f *= exactPow10[exp10]
		}
	case -maxPow10 <= exp10 && exp10 <= maxPow10:
		if f, ok = eiselLemire(mant, exp10); !ok {
			return 0, false
		}
	default:
		return 0, false
	}
	if neg {
		f = -f // keeps the sign of -0
	}
	return f, true
}

// scanDigits folds the run of ASCII digits at s[i:] into m (wrapping; the
// caller bounds the digit count) and returns the index after the run.
func scanDigits(s string, i int, m uint64) (int, uint64) {
	for len(s)-i >= 8 {
		c := s[i : i+8]
		v := uint64(c[0]) | uint64(c[1])<<8 | uint64(c[2])<<16 | uint64(c[3])<<24 |
			uint64(c[4])<<32 | uint64(c[5])<<40 | uint64(c[6])<<48 | uint64(c[7])<<56
		// Eight digits iff every high nibble is 3 and stays 3 after adding 6.
		if (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 != 0x3333333333333333 {
			break
		}
		// Combine neighbours: bytes → pairs → quads → the eight-digit value.
		v -= 0x3030303030303030
		v = v*10 + v>>8
		const mask = 0x000000FF000000FF
		v = ((v&mask)*(100+1000000<<32) + (v>>16&mask)*(1+10000<<32)) >> 32
		m = m*100000000 + v
		i += 8
	}
	for i < len(s) && s[i]-'0' <= 9 {
		m = m*10 + uint64(s[i]-'0')
		i++
	}
	return i, m
}

// eiselLemire returns the float64 nearest mant × 10^exp10 (ties to even)
// for mant in [1, 10^19) and |exp10| ≤ maxPow10, or ok=false when 128 bits
// of the power of ten do not settle the rounding.
//
// With mant normalised to w in [2^63, 2^64) and 10^q = (T+δ)·2^(exp-127),
// T = hi:lo truncated so 0 ≤ δ < 1, the top 54 bits of w·T are the 53-bit
// mantissa and a round bit, provided the dropped part of the product
// (less than w, in units of the last word kept) cannot carry that high.
func eiselLemire(mant uint64, exp10 int) (f float64, ok bool) {
	lz := bits.LeadingZeros64(mant)
	w := mant << lz
	p := &pow10Tab[exp10+maxPow10]

	xhi, xlo := bits.Mul64(w, p.hi)
	if xhi&0x1FF == 0x1FF && xlo+w < w {
		// A carry out of xlo could ripple into the round bit: bring in the
		// low word of the power and ask the same question one word lower.
		yhi, ylo := bits.Mul64(w, p.lo)
		var c uint64
		xlo, c = bits.Add64(xlo, yhi, 0)
		xhi += c
		if xhi&0x1FF == 0x1FF && xlo+1 == 0 && ylo+w < w {
			return 0, false
		}
	}

	// xhi holds 64 or 63 significant bits; keep 54.
	msb := xhi >> 63
	m := xhi >> (msb + 9)
	if xlo == 0 && xhi&0x1FF == 0 && m&3 == 1 {
		// Round bit set, nothing seen below it, even mantissa: a true tie
		// rounds down, a value a hair above rounds up, and truncation hides
		// which this is.
		return 0, false
	}
	m = (m + m&1) >> 1
	e := p.exp + 63 - lz + int(msb)
	if m>>53 != 0 {
		m >>= 1
		e++
	}
	return math.Float64frombits(uint64(e+1023)<<52 | m&(1<<52-1)), true
}

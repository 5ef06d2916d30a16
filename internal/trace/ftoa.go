package trace

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// ftoa.go is the number path of the profile writer, the twin of atof.go:
// appendTime writes a time in strconv's shortest round-trip form. It works
// out the digits itself for the values a profile holds and hands everything
// else to strconv, so its output is strconv's byte for byte
// (TestAppendTimeMatchesStrconv, FuzzAppendTime).
//
// The digits are Schubfach's (Giulietti 2020) on exact integers. For
// v = c·2^q with 2^-14 ≤ v < 2^20, the scale 10^j with j = ⌈-q·log10 2⌉ is a
// power of ten below 10^21, which pow10Tab holds exactly in its high word,
// so v·10^j and the rounding interval around it come out of one 64×64-bit
// product with nothing rounded. At that scale the interval is wider than 1
// and narrower than 10: it holds at most one multiple of ten, which is then
// the shortest form, and otherwise the integers next to v·10^j are the
// candidates, of which the nearer one wins, ties to even — strconv's choice.

// fastMinQ and fastMaxQ bound the binary exponent q of v = c·2^q (c the
// 53-bit mantissa) on the fast path: 2^-14 ≤ v < 2^20, wide enough for
// every v whose shortest form 'g' writes without an exponent, 1e-4 ≤ v < 1e6.
const (
	fastMinQ = -14 - 52
	fastMaxQ = 19 - 52
)

// digitPairs[x] is x < 100 in two ASCII digits, the first in the low byte.
var digitPairs = func() (t [128]uint16) {
	for x := range 100 {
		t[x] = uint16('0'+x/10) | uint16('0'+x%10)<<8
	}
	return t
}()

// appendTime appends v as strconv.AppendFloat(dst, v, 'g', -1, 64) does.
func appendTime(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	q := int(b>>52) - 1075 // the sign bit puts a negative v far above fastMaxQ
	if q < fastMinQ || q > fastMaxQ || b<<12 == 0 {
		// Zero, subnormals, negatives, NaN, ±Inf, the %e range, and powers
		// of two, whose rounding interval is lopsided.
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	c := b&(1<<52-1) | 1<<52
	j := -((q * 78913) >> 18)  // ⌈-q·log10 2⌉, so 1 ≤ 2^q·10^j < 10
	p := &pow10Tab[maxPow10+j] // 10^j = p.hi·2^(p.exp-63) exactly: p.lo is 0
	a := uint(q + 1 + p.exp)   // in [1, 4]

	// v·10^j = s + f/2^64. Which candidate wins depends on the digits, so
	// the choice is made with borrows and selects rather than branches.
	s, f := bits.Mul64(c<<a, p.hi)
	// A distance d·2^-64 from v·10^j is inside the rounding interval iff
	// d < h: h is half an ulp at this scale, one unit more when c is even,
	// as a tie then rounds to v.
	hl, carry := bits.Add64(p.hi<<(a-1), c&1^1, 0)
	hh := p.hi>>(65-a) + carry
	inside := func(dh, dl uint64) uint64 {
		_, b := bits.Sub64(dl, hl, 0)
		_, b = bits.Sub64(dh, hh, b)
		return b
	}
	_, frac := bits.Sub64(0, f, 0) // 1 iff f > 0
	r := s % 10
	// The one multiple of ten the interval may hold, below or above.
	lo10, hi10 := inside(r, f), inside(10-r-frac, -f)
	// Else s or s+1, the nearer if both are inside, ties to even.
	_, past := bits.Sub64(1<<63, f, 0)
	if f == 1<<63 {
		past = s & 1
	}
	n := s + inside(1-frac, -f)&(inside(0, f)^1|past)
	n ^= (n ^ (s - r + 10*hi10)) & -(lo10 | hi10)

	// n·10^-j is the shortest form. n has 16 to 18 digits (c ≤ s ≤ 10c),
	// written to buf[6:24] after a run of zeros.
	var buf [24]byte
	mid := n / 1e8
	top := mid / 1e8 // at most 14
	binary.LittleEndian.PutUint64(buf[:], zeros8|uint64(digitPairs[top&127])<<48)
	binary.LittleEndian.PutUint64(buf[8:], digits8(uint32(mid-top*1e8)))
	binary.LittleEndian.PutUint64(buf[16:], digits8(uint32(n-mid*1e8)))
	i := int(firstDigit[top&15])
	dp := len(buf) - i - j // the digits are 0.d₁d₂…·10^dp
	if dp < -3 || dp > 6 {
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	tail := binary.LittleEndian.Uint64(buf[16:]) ^ zeros8
	end := len(buf) - bits.LeadingZeros64(tail)/8 // past the last nonzero digit
	if tail == 0 {
		for end = 16; buf[end-1] == '0'; end-- {
		}
	}
	if dp >= end-i { // an integer, whose trailing zeros are digits
		return append(dst, buf[i:i+dp]...)
	}
	// The L characters after buf[at] move one place left and the point
	// fills the gap. For dp > 0 they are the integer digits; for dp ≤ 0,
	// L = 1 and at is placed so that a '0' and -dp more zeros precede the
	// digits, which then read "0.", -dp zeros, the digits.
	at := i - 1 - max(1-dp, 0)
	L := 8 * uint(max(dp, 1))
	w := binary.LittleEndian.Uint64(buf[at:])
	low := uint64(1)<<L - 1
	binary.LittleEndian.PutUint64(buf[at:], w>>8&low|'.'<<L|w&^(low<<8|0xff))
	return append(dst, buf[at:end]...)
}

// zeros8 is eight '0' characters, little-endian.
const zeros8 = 0x3030303030303030

// firstDigit[top] is where n's digits begin in appendTime's buffer when
// its leading pair, n/10^16, is top.
var firstDigit = [16]uint8{8, 7, 7, 7, 7, 7, 7, 7, 7, 7, 6, 6, 6, 6, 6, 6}

// digits8 returns the eight decimal digits of m < 10^8 as ASCII, first digit
// in the low byte.
func digits8(m uint32) uint64 {
	hi, lo := m/10000, m%10000
	return uint64(digitPairs[hi/100]) | uint64(digitPairs[hi%100])<<16 |
		uint64(digitPairs[lo/100])<<32 | uint64(digitPairs[lo%100])<<48
}

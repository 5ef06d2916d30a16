package trace

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkAppendTime is appendTime's whole contract: strconv's bytes.
func checkAppendTime(t testing.TB, v float64) {
	t.Helper()
	got := appendTime(nil, v)
	if want := strconv.AppendFloat(nil, v, 'g', -1, 64); string(got) != string(want) {
		t.Fatalf("appendTime(%#x) = %q, strconv %q", math.Float64bits(v), got, want)
	}
}

// inFastDomain maps any 64 bits to a positive float64 whose binary exponent
// is on the fast path, keeping the mantissa bits.
func inFastDomain(b uint64) float64 {
	q := fastMinQ + int(b>>52)%(fastMaxQ-fastMinQ+1)
	return math.Float64frombits(uint64(q+1075)<<52 | b&(1<<52-1))
}

// appendTimeEdges are the classes where a shortest-digit routine goes wrong:
// both ends of the %f layout and their float neighbours, powers of two (the
// lopsided interval), exact short decimals, shortest forms that end in zeros,
// dyadic values with few bits (ties between two shortest candidates), and
// what the fast path hands to strconv.
func appendTimeEdges() []float64 {
	var vs []float64
	for _, x := range []float64{1e-5, 1e-4, 1e-3, 0.1, 1, 10, 1e5, 1e6, 1e7, 0.3, 2.5e-4, 999999.5, 999999.4999999999} {
		for _, dir := range []float64{0, math.Inf(1)} {
			y := x
			for i := 0; i < 40; i++ {
				vs = append(vs, y)
				y = math.Nextafter(y, dir)
			}
		}
	}
	for e := -1080; e <= 1030; e++ {
		p := math.Ldexp(1, e)
		vs = append(vs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), 3*p, 5*p, 7*p)
	}
	for n := 1; n <= 100000; n++ {
		vs = append(vs, float64(n), float64(n)/10, float64(n)/100, float64(n)/1000, float64(n)/1e4, float64(n)/1e8, float64(n)*10)
	}
	for _, m := range []uint64{1, 3, 5, 129, 16385, 1<<20 + 1, 1<<30 + 3} {
		for e := -80; e <= 20; e++ {
			vs = append(vs, math.Ldexp(float64(m), e))
		}
	}
	return append(vs, 0, math.Copysign(0, -1), -1.5, -0.1, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, 0.30000000000000004, 123456.789, 1e21, 1e22)
}

func TestAppendTimeEdges(t *testing.T) {
	for _, v := range appendTimeEdges() {
		checkAppendTime(t, v)
	}
}

// TestAppendTimeMatchesStrconv is the differential test over random bit
// patterns: mostly inside the fast path's exponent range, the rest anywhere.
func TestAppendTimeMatchesStrconv(t *testing.T) {
	n := 2_000_000
	if testing.Short() {
		n = 200_000
	}
	r := rand.New(rand.NewSource(27))
	for i := 0; i < n; i++ {
		b := r.Uint64()
		checkAppendTime(t, inFastDomain(b))
		if i%8 == 0 {
			checkAppendTime(t, math.Float64frombits(b))
			checkAppendTime(t, math.Exp(r.NormFloat64()*3+2)) // kernel-time-like magnitudes
		}
	}
}

// TestPow10TabExactOnTheFastPath: appendTime multiplies by the high word of
// 10^j alone, which is exact only while 10^j's low word is zero, and needs
// an ulp at that scale, 2^q·10^j, to lie in [1, 10).
func TestPow10TabExactOnTheFastPath(t *testing.T) {
	for q := fastMinQ; q <= fastMaxQ; q++ {
		j := -((q * 78913) >> 18)
		p := pow10Tab[maxPow10+j]
		if a := q + 1 + p.exp; p.lo != 0 || a < 1 || a > 4 {
			t.Errorf("q=%d: 10^%d has low word %#x and shift %d", q, j, p.lo, a)
		}
		if w := math.Ldexp(math.Pow10(j), q); w < 1 || w >= 10 {
			t.Errorf("q=%d: 2^q·10^%d = %v is outside [1, 10)", q, j, w)
		}
	}
}

// FuzzAppendTime holds appendTime to strconv on the bits as given and on
// the same mantissa moved into the fast path's exponent range.
func FuzzAppendTime(f *testing.F) {
	for _, v := range []float64{1.5, 0.30000000000000004, 1e-4, 999999.9999999999, 100000, 5e-324, math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		checkAppendTime(t, math.Float64frombits(b))
		checkAppendTime(t, inFastDomain(b))
	})
}

var sinkBytes []byte

// BenchmarkAppendTime compares appendTime with strconv.AppendFloat on the
// values of a serving trace: microseconds with 16–17 significant digits.
// There are more of them than a branch predictor learns, as in a trace.
func BenchmarkAppendTime(b *testing.B) {
	const n = 1 << 16
	r := rand.New(rand.NewSource(27))
	var times [n]float64
	for i := range times {
		times[i] = math.Exp(r.NormFloat64()*1.2 + 1.5)
	}
	buf := make([]byte, 0, 32)
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendTime(buf[:0], times[i&(n-1)])
		}
		sinkBytes = buf
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], times[i&(n-1)], 'g', -1, 64)
		}
		sinkBytes = buf
	})
}

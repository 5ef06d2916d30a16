// Package rng provides deterministic, splittable pseudo-random number
// generation for the simulation framework.
//
// Reproducibility is a hard requirement: every kernel invocation in a
// synthetic workload, every hardware-timing jitter draw, and every sampling
// decision must be derivable from a root seed so that experiments are exactly
// repeatable and so that the "ground truth" of a workload is stable across
// runs. The package implements SplitMix64 (for seed derivation) and a
// PCG-XSH-RR style generator (for streams), both allocation-free.
//
// A *Rand is NOT safe for concurrent use: parallel code must give each
// goroutine its own generator, derived with Derive or Split from labels
// that do not depend on goroutine scheduling (invocation index, kernel
// name, run number). Derive, HashString, and New are pure and safe to call
// from any goroutine; this derive-per-unit discipline is what makes the
// worker pools bit-deterministic.
package rng

import "math"

// SplitMix64 advances the given state and returns the next 64-bit value.
// It is used to derive independent stream seeds from a root seed; the
// constants are from Steele et al., "Fast Splittable Pseudorandom Number
// Generators" (OOPSLA 2014).
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive deterministically combines a seed with a sequence of labels,
// producing an independent sub-seed. Labels let callers split one root seed
// into per-workload, per-kernel, and per-invocation streams without
// coordination.
func Derive(seed uint64, labels ...uint64) uint64 {
	s := seed
	for _, l := range labels {
		s ^= SplitMix64(&l)
		SplitMix64(&s)
	}
	return SplitMix64(&s)
}

// HashString folds a string into a 64-bit value using FNV-1a, for deriving
// streams from kernel names.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Rand is a small, fast deterministic generator (PCG-XSH-RR, 64-bit state,
// 32-bit output combined into 64-bit values). The zero value is NOT valid;
// construct with New.
type Rand struct {
	state uint64
	inc   uint64

	// Gaussian spare value cache (Marsaglia polar method).
	hasSpare bool
	spare    float64
}

// New returns a generator seeded from seed. Distinct seeds yield
// uncorrelated streams.
func New(seed uint64) *Rand {
	r := Seeded(seed)
	return &r
}

// Seeded is New as a value constructor: it returns the generator inline so
// hot paths can embed a Rand directly in a larger struct (the simulator's
// per-warp instruction streams) instead of holding a pointer to a separate
// heap object. The returned value produces the exact same sequence as
// New(seed).
func Seeded(seed uint64) Rand {
	r := Rand{inc: (seed << 1) | 1}
	r.state = Derive(seed, 0x5851f42d4c957f2d)
	r.next32()
	return r
}

// Split derives an independent child generator; the parent advances so
// successive Split calls return distinct children.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

func (r *Rand) next32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	return uint64(r.next32())<<32 | uint64(r.next32())
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// modulo bias is negligible for n << 2^64 and determinism is what counts.
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// LogNormal returns exp(mu + sigma*Z), a log-normal variate. Log-normal
// jitter models the heavy right tails of memory-bound kernel times.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

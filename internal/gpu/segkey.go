package gpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"stemroot/internal/kernelgen"
)

// EngineFingerprint names the simulation engine's behaviour version. It is
// part of every segment cache key, so results produced by a different engine
// version can never be confused with current ones — they simply hash to keys
// the current engine will never look up.
//
// Discipline: bump this string in the SAME change as any modification that
// alters simulated results (RunKernel, kernelgen.Stream, rng, cache
// replacement, event order, ...). The golden tests (TestRunKernelGolden,
// TestFullSimGolden) pin the engine bit-for-bit against values recorded from
// the argmin reference loop (oracle_test.go); if they ever need new expected
// values, this constant needs a new suffix in the same commit.
// TestSegmentKeyGolden pins the key derivation itself, so either drift is
// caught. v3: events execute in (ready cycle, warp launch id) order; v2 and
// earlier broke ready-cycle ties by the layout of one global binary heap.
// (The string is kept at v2's length on purpose: the key-encoding scratch
// buffer grows by size class, and one more byte moved dse_warm's allocation
// by 0.1 %.)
const EngineFingerprint = "stemroot-gpu-engine-v3-ready-id-rule"

// SegmentKey is the content address of one replay segment's results: a
// SHA-256 over the engine fingerprint, the full gpu.Config, and the
// segment's kernelgen.Spec sequence. The engine is a pure function of
// exactly those inputs (see RunSegmentedEngine), so equal keys imply
// bit-identical simulation output; unequal inputs collide only with
// cryptographic improbability.
type SegmentKey [32]byte

// String returns the key in hex, usable as a file name.
func (k SegmentKey) String() string { return hex.EncodeToString(k[:]) }

// SegmentCache is what RunSegmentedEngine consults before simulating a
// segment. GetOrCompute returns the results for key, either cached or by
// invoking compute (at most once per key across concurrent callers —
// singleflight) and caching its result. The returned slice is shared across
// callers and must be treated as read-only.
//
// Implementations must be safe for concurrent use; internal/simcache is the
// canonical one.
type SegmentCache interface {
	GetOrCompute(key SegmentKey, compute func() ([]KernelResult, error)) ([]KernelResult, error)
}

// BatchPrefetcher is an optional SegmentCache extension for caches with a
// high-latency backing tier (a remote cache server — internal/cachenet).
// RunSegmentedEngine knows every segment key of a workload before any
// segment executes, so when the cache wants it (WantPrefetch), the runner
// derives all keys up front and announces them in one Prefetch call; the
// cache can then resolve them against its backing tier in one batched round
// trip instead of one per segment. Prefetch is a pure performance hint:
// it must not change what subsequent GetOrCompute calls return, only where
// the results come from.
type BatchPrefetcher interface {
	SegmentCache
	// WantPrefetch reports whether Prefetch is worth the up-front key
	// derivation (false when no batched backing tier is attached).
	WantPrefetch() bool
	// Prefetch announces the segment keys about to be requested, in
	// segment order. The slice is the runner's scratch: read it, do not keep
	// it. It must be safe for concurrent use.
	Prefetch(keys []SegmentKey)
}

// SegmentDecoder is an optional SegmentCache extension for caches that hold
// results encoded (internal/simcache's mapped pack). RunSegmentedEngine
// asks it first for every segment: DecodeInto writes key's results straight
// into the segment's window of the runner's results, so a hit neither
// allocates a slice nor is copied twice. It returns false on a miss, when
// the stored entry does not hold len(dst) results, or when it fails
// verification — dst's contents are then unspecified — and the runner asks
// GetOrCompute. It must be safe for concurrent use.
type SegmentDecoder interface {
	SegmentCache
	DecodeInto(key SegmentKey, dst []KernelResult) bool
}

// keyHasher appends the canonical binary encoding of the key inputs to a
// byte buffer that is hashed in one SHA-256 pass at the end. Every field is
// written in fixed order with fixed width, strings as a length prefix plus
// bytes, floats as their IEEE-754 bit patterns, so the encoding is injective
// and platform-independent. Building the encoding in a flat buffer (instead
// of streaming 8-byte words through a hash.Hash) lets the hot warm-replay
// path reuse one caller-owned buffer across segments — no per-key hash-state
// allocation, one contiguous Sum256 — while producing byte-identical input
// and therefore the exact keys TestSegmentKeyGolden pins.
type keyHasher struct {
	buf []byte
}

func (kh *keyHasher) u64(v uint64) {
	kh.buf = binary.LittleEndian.AppendUint64(kh.buf, v)
}

func (kh *keyHasher) i64(v int64)   { kh.u64(uint64(v)) }
func (kh *keyHasher) i(v int)       { kh.u64(uint64(int64(v))) }
func (kh *keyHasher) f64(v float64) { kh.u64(math.Float64bits(v)) }

func (kh *keyHasher) boolean(v bool) {
	var b byte
	if v {
		b = 1
	}
	kh.buf = append(kh.buf, b)
}

func (kh *keyHasher) str(s string) {
	kh.u64(uint64(len(s)))
	kh.buf = append(kh.buf, s...)
}

func (kh *keyHasher) sum() SegmentKey {
	return SegmentKey(sha256.Sum256(kh.buf))
}

// writeConfig hashes every Config field. TestSegmentKeyCoversConfig keeps
// this in sync with the struct: adding a Config field without extending this
// list fails that test, preventing silently stale cache keys.
func (kh *keyHasher) writeConfig(c *Config) {
	kh.str(c.Name)
	kh.i(c.SMs)
	kh.i(c.WarpSlots)
	kh.i(c.IssueWidth)
	kh.i(c.ALULatency)
	kh.i(c.FP16Latency)
	kh.i(c.SFULatency)
	kh.i(c.L1Latency)
	kh.i(c.L2Latency)
	kh.i(c.DRAMLatency)
	kh.writeCacheConfig(&c.L1)
	kh.writeCacheConfig(&c.L2)
	kh.i(c.MSHRsPerSM)
	kh.f64(c.DRAMBytesPerCycle)
	kh.f64(c.DependencyFraction)
	kh.boolean(c.FlushL2BetweenKernels)
}

func (kh *keyHasher) writeCacheConfig(c *CacheConfig) {
	kh.i64(c.SizeBytes)
	kh.i64(c.LineBytes)
	kh.i(c.Ways)
}

// writeSpec hashes every kernelgen.Spec field (kept in sync by
// TestSegmentKeyCoversSpec). Name does not influence simulation, but it is
// cheap to include and keeps the key injective over the whole struct rather
// than over an argument about which fields matter.
func (kh *keyHasher) writeSpec(s *kernelgen.Spec) {
	kh.str(s.Name)
	kh.i(s.Blocks)
	kh.i(s.WarpsPerBlock)
	kh.i(s.InstrsPerWarp)
	kh.f64(s.FP32Frac)
	kh.f64(s.FP16Frac)
	kh.f64(s.SFUFrac)
	kh.f64(s.LoadFrac)
	kh.f64(s.StoreFrac)
	kh.f64(s.BranchFrac)
	kh.i64(s.FootprintBytes)
	kh.f64(s.Locality)
	kh.f64(s.RandomAccess)
	kh.u64(s.BaseAddr)
	kh.u64(s.WeightsAddr)
	kh.f64(s.WeightsFrac)
	kh.f64(s.BranchDivergence)
	kh.u64(s.Seed)
}

// KeyForSegmentEngineAppend derives the content address of a replay segment
// under an engine mode: the engine fingerprint, the GPU configuration, and
// the ordered spec sequence the segment simulates. Segment boundaries are
// part of the content by construction — a different segment length produces
// different spec sequences per segment and therefore different keys.
//
// Every spelling of exact mode hashes EngineFingerprint in front of the
// config+spec encoding (pinned by TestSegmentKeyGolden and
// TestSegmentKeyEngineExactMatchesLegacy, so every cache entry ever written
// by exact-mode runs stays addressable). Par-mode keys hash
// ParEngineFingerprint plus the epoch length, DefaultEpoch, instead (pinned
// by TestSegmentKeyParGolden): a different mode is a different key, while
// the worker count — which cannot change results — is excluded.
//
// The canonical encoding is appended to buf[:0] and the (possibly grown)
// buffer is returned for reuse, so a worker deriving keys for segment after
// segment allocates only until its buffer reaches steady-state capacity.
func KeyForSegmentEngineAppend(buf []byte, cfg Config, specs []kernelgen.Spec, eng Engine) (SegmentKey, []byte) {
	eng = eng.normalized()
	kh := keyHasher{buf: buf[:0]}
	if eng.exact() {
		kh.str(EngineFingerprint)
	} else {
		kh.str(ParEngineFingerprint)
		kh.f64(DefaultEpoch)
	}
	kh.writeConfig(&cfg)
	kh.u64(uint64(len(specs)))
	for i := range specs {
		kh.writeSpec(&specs[i])
	}
	return kh.sum(), kh.buf
}

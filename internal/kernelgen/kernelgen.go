// Package kernelgen translates a trace invocation's latent behaviour into a
// concrete kernel description the cycle-level simulator can execute:
// a number of thread blocks, warps per block, and a deterministic per-warp
// instruction stream with a realistic mix of arithmetic, memory, branch,
// and synchronization instructions over an address stream matching the
// invocation's footprint, locality, and randomness.
//
// The translation is scale-reduced: simulating every dynamic instruction of
// a multi-second GPU workload is exactly the cost the paper's sampling
// methodology avoids, so the generator maps latent work to a bounded number
// of simulated instructions while preserving the *relative* behaviour
// (compute- vs memory-bound, cache-resident vs DRAM-streaming, divergent vs
// uniform) that the DSE experiments measure.
//
// Spec generation is a pure function of the invocation and limits, and a
// Spec is read-only once built (NewStream and InitStream produce fresh
// per-warp stream state; neither mutates the Spec), so specs may be built
// and executed concurrently from many goroutines.
package kernelgen

import (
	"stemroot/internal/rng"
	"stemroot/internal/trace"
)

// OpKind classifies a simulated instruction.
type OpKind uint8

// Instruction kinds.
const (
	OpALU OpKind = iota
	OpFP32
	OpFP16
	OpSFU
	OpLoad
	OpStore
	OpBranch
	OpSync

	// KindCount is the number of instruction kinds. The simulator sizes its
	// per-kernel kind-indexed latency tables with it, so dispatch on OpKind
	// is a bounded array load instead of a switch; adding a kind above
	// automatically widens those tables (and their zero entries make a
	// missing latency assignment fail loudly in the engine oracle tests).
	KindCount
)

// Instr is one simulated instruction. Addr is meaningful for OpLoad/OpStore.
type Instr struct {
	Kind OpKind
	Addr uint64
}

// Spec describes a kernel ready for simulation.
type Spec struct {
	Name          string
	Blocks        int
	WarpsPerBlock int
	InstrsPerWarp int

	// Instruction mix probabilities (sum <= 1; remainder is OpALU).
	FP32Frac   float64
	FP16Frac   float64
	SFUFrac    float64
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64

	// Memory behaviour.
	FootprintBytes int64
	Locality       float64 // probability of reusing a recent line
	RandomAccess   float64 // probability a new access is random vs strided
	BaseAddr       uint64  // per-invocation activation region
	// WeightsAddr is a region shared by every invocation of the same
	// kernel (model weights persist across launches); WeightsFrac of
	// accesses land there. This is the only source of inter-kernel cache
	// reuse, which the paper's §6.2 flush experiment bounds.
	WeightsAddr uint64
	WeightsFrac float64

	// BranchDivergence in [0,1] lengthens divergent branches.
	BranchDivergence float64

	Seed uint64
}

// Limits bound the scale reduction.
type Limits struct {
	MaxBlocks        int
	MaxWarpsPerBlock int
	MinInstrsPerWarp int
	MaxInstrsPerWarp int
	// WorkPerInstr converts latent ComputeWork units into simulated
	// instructions (larger = coarser).
	WorkPerInstr float64
}

// DefaultLimits keeps full Rodinia-scale workload simulations tractable in
// test time while leaving enough dynamic instructions for cache behaviour
// to emerge.
func DefaultLimits() Limits {
	return Limits{
		MaxBlocks:        64,
		MaxWarpsPerBlock: 8,
		MinInstrsPerWarp: 48,
		MaxInstrsPerWarp: 1024,
		WorkPerInstr:     2e3,
	}
}

// DSELimits is the scale mapping for workloads already shrunk for
// simulation by workloads.ReducedSuite (whose compute work is divided
// ~500x): a finer
// work-to-instruction ratio and a lower floor keep the relative work of
// invocations — heartwall's tiny first call, gaussian's decay — visible in
// simulated cycles instead of flattening everything onto the minimum
// stream length.
func DSELimits() Limits {
	return Limits{
		MaxBlocks:        64,
		MaxWarpsPerBlock: 8,
		MinInstrsPerWarp: 12,
		MaxInstrsPerWarp: 4096,
		WorkPerInstr:     2e2,
	}
}

// FromInvocation builds a simulation spec for one invocation.
func FromInvocation(inv *trace.Invocation, lim Limits) Spec {
	lat := inv.Latent

	blocks := inv.Grid.Count()
	if blocks > lim.MaxBlocks {
		blocks = lim.MaxBlocks
	}
	if blocks < 1 {
		blocks = 1
	}
	wpb := (inv.Block.Count() + 31) / 32
	if wpb > lim.MaxWarpsPerBlock {
		wpb = lim.MaxWarpsPerBlock
	}
	if wpb < 1 {
		wpb = 1
	}

	totalWarps := blocks * wpb
	instrs := int(float64(lat.ComputeWork) / (lim.WorkPerInstr * float64(totalWarps)))
	if instrs < lim.MinInstrsPerWarp {
		instrs = lim.MinInstrsPerWarp
	}
	if instrs > lim.MaxInstrsPerWarp {
		instrs = lim.MaxInstrsPerWarp
	}

	mem := lat.MemIntensity * 0.6 // memory instruction share
	fp := (1 - mem) * 0.7
	nameHash := rng.HashString(inv.Name)
	return Spec{
		Name:          inv.Name,
		Blocks:        blocks,
		WarpsPerBlock: wpb,
		InstrsPerWarp: instrs,

		FP32Frac:   fp * (1 - lat.FP16Frac),
		FP16Frac:   fp * lat.FP16Frac,
		SFUFrac:    0.03,
		LoadFrac:   mem * 0.7,
		StoreFrac:  mem * 0.3,
		BranchFrac: 0.05,

		FootprintBytes: lat.FootprintBytes,
		Locality:       lat.Locality,
		RandomAccess:   lat.RandomAccess,
		// Each invocation streams its own buffers (fresh activations,
		// rotated weights): distinct regions per invocation keep
		// inter-kernel L2 reuse negligible, matching the paper's §6.2
		// observation that "most cache reuse occurs within kernels rather
		// than across them". Cache capacity still matters through the
		// multi-pass reuse inside one kernel.
		BaseAddr: rng.Derive(nameHash, uint64(inv.Seq)) & 0x7fffffffffff &^ 0x7f,
		// A small share of accesses touches weights shared across
		// invocations; the paper finds inter-kernel reuse minor ("most
		// cache reuse occurs within kernels"), so the share is small.
		WeightsAddr:      nameHash & 0x7fffffffffff &^ 0x7f,
		WeightsFrac:      0.05,
		BranchDivergence: lat.BranchDivergence,

		Seed: rng.Derive(inv.BBVSeed, uint64(inv.Seq), 0x5bec),
	}
}

// TotalWarps returns the number of warps the kernel launches.
func (s *Spec) TotalWarps() int { return s.Blocks * s.WarpsPerBlock }

// Stream generates warp w's instruction stream deterministically. Streams
// of the same invocation differ across warps (different address phases) but
// share the kernel's statistical profile.
//
// Stream is a value type: the generator state (including its RNG) is stored
// inline so the simulator can embed streams in pooled per-warp slots and
// reinitialize them with InitStream without any heap allocation. The
// cumulative op-mix thresholds are precomputed at initialization so Next
// classifies an instruction with single comparisons instead of re-summing
// the mix fractions on every call; the cumulative sums are built
// left-to-right exactly as the previous per-call sums were, so the
// classification boundaries are bit-identical.
type Stream struct {
	spec      *Spec
	r         rng.Rand
	remaining int
	// reuse window of recently touched lines for locality modelling
	window    [16]uint64
	windowLen int
	cursor    uint64 // strided-access position

	// Precomputed per-stream constants.
	footprint uint64 // clamped footprint
	wsize     uint64 // clamped weights-region size
	// Power-of-two strength reduction: x % 2^k == x & (2^k - 1), so when a
	// region size is a power of two (every stock benchmark footprint) the
	// per-access modulo — a ~25-cycle divide on the engine's hot path —
	// becomes a mask with the identical result. Zero masks mean "not a
	// power of two, divide as before".
	footMask uint64
	wMask    uint64
	// Cumulative instruction-mix thresholds: a uniform draw x selects
	// Load if x < cLoad, Store if x < cStore, and so on; OpALU is the
	// remainder.
	cLoad, cStore, cFP32, cFP16, cSFU, cBranch float64
}

// InitStream initializes st as warp w's stream in place, overwriting any
// previous state. A reinitialized stream is indistinguishable from a fresh
// one: every field consulted by Next is reset (stale window contents are
// unreachable once windowLen is 0).
func (s *Spec) InitStream(st *Stream, w int) {
	footprint := uint64(s.FootprintBytes)
	if footprint < 128 {
		footprint = 128
	}
	wsize := footprint / 4
	if wsize < 128 {
		wsize = 128
	}
	st.spec = s
	st.r = rng.Seeded(rng.Derive(s.Seed, uint64(w)))
	st.remaining = s.InstrsPerWarp
	st.windowLen = 0
	st.footprint = footprint
	st.wsize = wsize
	st.footMask = 0
	if footprint&(footprint-1) == 0 {
		st.footMask = footprint - 1
	}
	st.wMask = 0
	if wsize&(wsize-1) == 0 {
		st.wMask = wsize - 1
	}
	st.cLoad = s.LoadFrac
	st.cStore = st.cLoad + s.StoreFrac
	st.cFP32 = st.cStore + s.FP32Frac
	st.cFP16 = st.cFP32 + s.FP16Frac
	st.cSFU = st.cFP16 + s.SFUFrac
	st.cBranch = st.cSFU + s.BranchFrac
	// Each warp starts at its own phase of the footprint so warps stream
	// different lines, as coalesced GPU code does.
	st.cursor = s.BaseAddr + uint64(w)*4096%footprint
}

// NewStream returns warp w's stream.
func (s *Spec) NewStream(w int) *Stream {
	st := new(Stream)
	s.InitStream(st, w)
	return st
}

// Next returns the next instruction; ok is false when the stream is done.
//
// Classification walks the cumulative thresholds as a three-deep binary
// search instead of a linear six-compare ladder; the cut points and the
// strict-< comparisons are the same, so every draw classifies identically —
// only the number of (frequently mispredicted) compares on the engine's
// per-instruction path changes.
func (st *Stream) Next() (ins Instr, ok bool) {
	if st.remaining <= 0 {
		return Instr{}, false
	}
	st.remaining--
	x := st.r.Float64()
	if x < st.cFP32 {
		if x < st.cStore {
			if x < st.cLoad {
				return Instr{Kind: OpLoad, Addr: st.nextAddr()}, true
			}
			return Instr{Kind: OpStore, Addr: st.nextAddr()}, true
		}
		return Instr{Kind: OpFP32}, true
	}
	if x < st.cSFU {
		if x < st.cFP16 {
			return Instr{Kind: OpFP16}, true
		}
		return Instr{Kind: OpSFU}, true
	}
	if x < st.cBranch {
		return Instr{Kind: OpBranch}, true
	}
	return Instr{Kind: OpALU}, true
}

func (st *Stream) nextAddr() uint64 {
	s := st.spec
	footprint := st.footprint
	// Temporal reuse: revisit a recently touched line. The full window's
	// length is a power of two, so its index draw reduces to a mask;
	// partially filled windows keep the divide. Both compute
	// Uint64() % windowLen exactly as Intn did.
	if wl := st.windowLen; wl > 0 && st.r.Float64() < s.Locality {
		u := st.r.Uint64()
		if wl == len(st.window) {
			return st.window[u&uint64(len(st.window)-1)]
		}
		return st.window[u%uint64(wl)]
	}
	var addr uint64
	if s.WeightsFrac > 0 && st.r.Float64() < s.WeightsFrac {
		// Weights: shared across invocations of the kernel, a quarter of
		// the footprint, strided per warp.
		if u := st.r.Uint64(); st.wMask != 0 {
			addr = s.WeightsAddr + u&st.wMask
		} else {
			addr = s.WeightsAddr + u%st.wsize
		}
		addr &^= 0x7f
		return st.remember(addr)
	}
	if st.r.Float64() < s.RandomAccess {
		if u := st.r.Uint64(); st.footMask != 0 {
			addr = s.BaseAddr + u&st.footMask
		} else {
			addr = s.BaseAddr + u%footprint
		}
	} else {
		st.cursor += 128
		if st.cursor >= s.BaseAddr+footprint {
			st.cursor = s.BaseAddr
		}
		addr = st.cursor
	}
	addr &^= 0x7f // line-align
	return st.remember(addr)
}

// remember inserts addr into the reuse window and returns it.
func (st *Stream) remember(addr uint64) uint64 {
	if st.windowLen < len(st.window) {
		st.window[st.windowLen] = addr
		st.windowLen++
	} else {
		// The window length is a power of two, so Intn's modulo reduces to
		// a mask over the same single Uint64 draw.
		st.window[st.r.Uint64()&uint64(len(st.window)-1)] = addr
	}
	return addr
}

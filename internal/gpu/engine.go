package gpu

import (
	"fmt"
	"math"

	"stemroot/internal/kernelgen"
	"stemroot/internal/metrics"
)

// ParEngineFingerprint names the relaxed-sync parallel engine's behaviour
// version, exactly as EngineFingerprint names the exact engine's. The two
// fingerprints are deliberately distinct constants: a segment simulated by
// RunKernelPar is keyed under this string (plus the epoch length), so exact
// and relaxed results can NEVER share a cache entry — not in the in-memory
// tier, not on disk, not on a remote cache server shared by a fleet mixing
// engine modes (pinned by TestSegmentKeyEngineSeparation).
//
// Discipline: bump this in the SAME change as any modification that alters
// RunKernelPar's results at a fixed epoch (merge order, overlay policy,
// fair-share queue model, epoch alignment, ...). Changes that alter the
// exact engine bump EngineFingerprint as before — and, since RunKernelPar
// shares the instruction-timing model, usually this string too.
const ParEngineFingerprint = "stemroot-gpu-engine-par-v2"

// EngineModeExact and EngineModePar are the two execution modes of the
// segmented simulation engine (see Engine).
const (
	EngineModeExact = "exact"
	EngineModePar   = "par"
)

// Engine selects how RunSegmentedEngine executes each kernel of a segment:
//
//   - exact (the zero value): Simulator.RunKernel — every event in global
//     (ready cycle, launch id) order, exact shared state at every
//     instruction.
//   - par: Simulator.RunKernelPar — per-SM shards advanced in Epoch-length
//     time windows against an epoch-synchronized shared L2, Workers intra-
//     kernel workers. Deterministic for any Workers value at a fixed Epoch;
//     approximate relative to exact mode, with the error measured by
//     `experiments -run epochsweep`.
//
// Workers and Epoch are ignored in exact mode. In par mode Epoch <= 0
// selects DefaultEpoch and Workers <= 0 selects one per CPU. Workers is
// deliberately NOT part of the segment cache key (it cannot change
// results); Epoch is.
//
// Barrier, when non-nil, receives per-kernel epoch-barrier accounting from
// par-mode runs (see metrics.BarrierCollector). It is observability only —
// no effect on results, keys, or engine equality semantics (normalized
// clears it in exact mode alongside the other par-only fields).
type Engine struct {
	Mode    string
	Workers int
	Epoch   float64
	Barrier *metrics.BarrierCollector
}

// Validate rejects unknown modes and non-finite epochs. An empty Mode is
// exact.
func (e Engine) Validate() error {
	switch e.Mode {
	case "", EngineModeExact, EngineModePar:
	default:
		return fmt.Errorf("gpu: unknown engine mode %q (want %q or %q)", e.Mode, EngineModeExact, EngineModePar)
	}
	if math.IsNaN(e.Epoch) || math.IsInf(e.Epoch, 0) {
		return fmt.Errorf("gpu: engine epoch must be finite, got %v", e.Epoch)
	}
	return nil
}

// normalized resolves defaults: empty mode to exact, par-mode Epoch <= 0 to
// DefaultEpoch (so Engine{Mode: "par"} means "par at the default epoch", not
// the degenerate exact case), and exact mode's Workers/Epoch to zero so that
// equal-behaviour engines compare equal.
func (e Engine) normalized() Engine {
	if e.Mode == "" {
		e.Mode = EngineModeExact
	}
	if e.Mode == EngineModeExact {
		e.Workers, e.Epoch, e.Barrier = 0, 0, nil
		return e
	}
	if e.Epoch <= 0 {
		e.Epoch = DefaultEpoch
	}
	return e
}

// exact reports whether e (already normalized) is the exact engine.
func (e Engine) exact() bool { return e.Mode == EngineModeExact }

// runKernel executes one kernel under the engine mode.
func (e Engine) runKernel(sim *Simulator, spec *kernelgen.Spec) KernelResult {
	if e.exact() {
		return sim.RunKernel(spec)
	}
	if sim.barrier != e.Barrier {
		sim.SetBarrierCollector(e.Barrier)
	}
	return sim.RunKernelPar(spec, e.Workers, e.Epoch)
}

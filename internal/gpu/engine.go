package gpu

import (
	"fmt"

	"stemroot/internal/kernelgen"
)

// ParEngineFingerprint names the relaxed-sync parallel engine's behaviour
// version, exactly as EngineFingerprint names the exact engine's. The two
// fingerprints are deliberately distinct constants: a segment simulated by
// RunKernelPar is keyed under this string (plus DefaultEpoch), so exact
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
//   - par: Simulator.RunKernelPar at DefaultEpoch — per-SM shards advanced
//     in epoch-length time windows against an epoch-synchronized shared
//     L2, Workers intra-kernel workers. Deterministic for any Workers
//     value; approximate relative to exact mode, within the 2 % total-
//     cycles bound internal/pipeline's TestParEngineAccuracyContract holds.
//
// Workers is ignored in exact mode; in par mode Workers <= 0 selects one per
// CPU. Workers is deliberately NOT part of the segment cache key: it cannot
// change results.
type Engine struct {
	Mode    string
	Workers int
}

// Validate rejects unknown modes. An empty Mode is exact.
func (e Engine) Validate() error {
	switch e.Mode {
	case "", EngineModeExact, EngineModePar:
		return nil
	}
	return fmt.Errorf("gpu: unknown engine mode %q (want %q or %q)", e.Mode, EngineModeExact, EngineModePar)
}

// normalized resolves defaults: empty mode to exact, and exact mode's
// Workers to zero, so that equal-behaviour engines compare equal.
func (e Engine) normalized() Engine {
	if e.Mode == "" {
		e.Mode = EngineModeExact
	}
	if e.Mode == EngineModeExact {
		e.Workers = 0
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
	return sim.RunKernelPar(spec, e.Workers, DefaultEpoch)
}

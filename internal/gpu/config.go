package gpu

import (
	"fmt"
	"math"
)

// Config describes the simulated GPU. The Table 4 design-space exploration
// doubles/halves L1/L2 capacity and the SM count relative to Baseline.
type Config struct {
	Name string

	SMs        int
	WarpSlots  int // resident warps per SM
	IssueWidth int // instructions issued per SM per cycle

	// Latencies in cycles.
	ALULatency  int
	FP16Latency int
	SFULatency  int // special function (exp, sqrt, ...)
	L1Latency   int
	L2Latency   int
	DRAMLatency int

	L1 CacheConfig // per SM
	L2 CacheConfig // shared

	// MSHRsPerSM bounds outstanding L1 misses per SM (miss status holding
	// registers); additional misses queue. 0 disables the limit.
	MSHRsPerSM int

	// DRAMBytesPerCycle bounds memory bandwidth.
	DRAMBytesPerCycle float64

	// DependencyFraction is the fraction of an instruction's latency that
	// stalls its warp (modelling partial ILP within a warp's stream).
	DependencyFraction float64

	// FlushL2BetweenKernels enables the §6.2 extreme-case ablation.
	FlushL2BetweenKernels bool
}

// Validate reports configuration errors. Beyond the structural checks it
// rejects every timing field whose derived constant — a per-kind dependency
// stall DependencyFraction*latency, a fill latency, the DRAM line service
// time LineBytes/DRAMBytesPerCycle — would be negative, NaN or infinite: the
// engine's event order rests on ready cycles that are non-negative numbers
// and never decrease along an SM's event sequence.
func (c Config) Validate() error {
	switch {
	case c.SMs <= 0:
		return fmt.Errorf("gpu: SMs must be positive, got %d", c.SMs)
	case c.WarpSlots <= 0:
		return fmt.Errorf("gpu: WarpSlots must be positive, got %d", c.WarpSlots)
	case c.IssueWidth <= 0:
		return fmt.Errorf("gpu: IssueWidth must be positive, got %d", c.IssueWidth)
	case c.L1.SizeBytes <= 0 || c.L2.SizeBytes <= 0:
		return fmt.Errorf("gpu: cache sizes must be positive")
	case !finiteNonNeg(c.DependencyFraction):
		return fmt.Errorf("gpu: DependencyFraction must be finite and non-negative, got %v", c.DependencyFraction)
	}
	for _, l := range []struct {
		name string
		v    int
	}{
		{"ALULatency", c.ALULatency}, {"FP16Latency", c.FP16Latency}, {"SFULatency", c.SFULatency},
		{"L1Latency", c.L1Latency}, {"L2Latency", c.L2Latency}, {"DRAMLatency", c.DRAMLatency},
	} {
		if l.v < 0 {
			return fmt.Errorf("gpu: %s must be non-negative, got %d", l.name, l.v)
		}
		// 3x covers the fully divergent branch, the largest multiple of a
		// latency any stall is built from.
		if !finiteNonNeg(c.DependencyFraction * 3 * float64(l.v)) {
			return fmt.Errorf("gpu: DependencyFraction %v overflows the %s stall", c.DependencyFraction, l.name)
		}
	}
	line := c.L2.LineBytes
	if line <= 0 {
		line = defaultLineBytes
	}
	if svc := float64(line) / c.DRAMBytesPerCycle; !(c.DRAMBytesPerCycle > 0) || !finiteNonNeg(svc) {
		return fmt.Errorf("gpu: DRAMBytesPerCycle must be positive with a finite line service time, got %v", c.DRAMBytesPerCycle)
	}
	return nil
}

func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Baseline returns the reference configuration of the DSE experiments — a
// mid-size part resembling the reduced MacSim configurations the paper used
// so that full simulations finish quickly.
func Baseline() Config {
	return Config{
		Name:       "baseline",
		SMs:        16,
		WarpSlots:  32,
		IssueWidth: 2,

		ALULatency:  8,
		FP16Latency: 6,
		SFULatency:  20,
		L1Latency:   28,
		L2Latency:   190,
		DRAMLatency: 420,

		L1: CacheConfig{SizeBytes: 64 << 10, LineBytes: 128, Ways: 4},
		L2: CacheConfig{SizeBytes: 2 << 20, LineBytes: 128, Ways: 16},

		MSHRsPerSM: 32,

		DRAMBytesPerCycle:  64,
		DependencyFraction: 0.45,
	}
}

// Variant derives a named DSE variant from the baseline: "cache_x2",
// "cache_half", "sm_x2", "sm_half", or "baseline".
func Variant(name string) (Config, error) {
	cfg := Baseline()
	switch name {
	case "baseline":
	case "cache_x2":
		cfg.L1.SizeBytes *= 2
		cfg.L2.SizeBytes *= 2
	case "cache_half":
		cfg.L1.SizeBytes /= 2
		cfg.L2.SizeBytes /= 2
	case "sm_x2":
		cfg.SMs *= 2
	case "sm_half":
		cfg.SMs /= 2
	default:
		return Config{}, fmt.Errorf("gpu: unknown variant %q", name)
	}
	cfg.Name = name
	return cfg, nil
}

// DSEVariants lists the Table 4 configurations in paper order.
var DSEVariants = []string{"baseline", "cache_x2", "cache_half", "sm_x2", "sm_half"}

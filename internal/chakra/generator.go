package chakra

import (
	"fmt"

	"stemroot/internal/rng"
	"stemroot/internal/trace"
)

// TrainingConfig parameterizes the synthetic data-parallel training ET
// generator.
type TrainingConfig struct {
	Ranks  int
	Steps  int
	Layers int
	// BucketBytes is the gradient all-reduce payload per layer bucket.
	BucketBytes int64
	Seed        uint64
}

// GenerateTraining builds a data-parallel training ET: every step runs, per
// rank, a forward pass (layer kernels in order), a backward pass in reverse
// layer order, and per-layer gradient all-reduce buckets that depend on
// that layer's backward kernel on every rank — so later layers' backward
// computation overlaps earlier buckets' communication, the standard
// computation-communication overlap structure. An optimizer step on each
// rank waits for all buckets.
//
// Compute nodes carry full invocations (with latent behaviour), so the
// hardware model can time them and STEM can sample them. Per-rank jitter
// comes from distinct invocation sequence numbers — ranks process different
// data shards.
func GenerateTraining(cfg TrainingConfig) (*Graph, error) {
	if cfg.Ranks <= 0 || cfg.Steps <= 0 || cfg.Layers <= 0 {
		return nil, fmt.Errorf("chakra: invalid training config %+v", cfg)
	}
	g := &Graph{Ranks: cfg.Ranks}

	addNode := func(n Node) int {
		n.ID = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
		return n.ID
	}
	seq := 0
	mkInv := func(name string, layer int, work int64, mem float64, foot int64, loc float64) *trace.Invocation {
		inv := &trace.Invocation{
			Seq:   seq,
			Name:  name,
			Grid:  trace.Dim3{X: 256},
			Block: trace.Dim3{X: 128},
			Latent: trace.Latent{
				Context:        layer % 3, // early/mid/late layer groups
				MemIntensity:   mem,
				FootprintBytes: foot << (uint(layer%3) * 1),
				Locality:       loc,
				ComputeWork:    work,
				FP16Frac:       0.7,
			},
			BBVSeed: rng.Derive(cfg.Seed, uint64(seq), 0xbb),
		}
		inv.InstrsPerWarp = int64(float64(work) / 2048 / 50)
		seq++
		return inv
	}

	// prev[rank] is the last compute node of the rank (serial stream dep).
	prev := make([]int, cfg.Ranks)
	for i := range prev {
		prev[i] = -1
	}
	dep := func(rank int, extra ...int) []int {
		var deps []int
		if prev[rank] >= 0 {
			deps = append(deps, prev[rank])
		}
		return append(deps, extra...)
	}

	for step := 0; step < cfg.Steps; step++ {
		// Forward.
		fwd := make([][]int, cfg.Layers)
		for l := 0; l < cfg.Layers; l++ {
			fwd[l] = make([]int, cfg.Ranks)
			for rank := 0; rank < cfg.Ranks; rank++ {
				id := addNode(Node{
					Kind: Compute, Rank: rank,
					Name: fmt.Sprintf("fwd_layer%d", l),
					Inv:  mkInv(fmt.Sprintf("fwd_layer%d", l), l, 2e9, 0.3, 16<<20, 0.8),
					Deps: dep(rank),
				})
				prev[rank] = id
				fwd[l][rank] = id
			}
		}
		// Backward (reverse order) + per-layer all-reduce buckets.
		buckets := make([]int, 0, cfg.Layers)
		for l := cfg.Layers - 1; l >= 0; l-- {
			bwdIDs := make([]int, cfg.Ranks)
			for rank := 0; rank < cfg.Ranks; rank++ {
				id := addNode(Node{
					Kind: Compute, Rank: rank,
					Name: fmt.Sprintf("bwd_layer%d", l),
					Inv:  mkInv(fmt.Sprintf("bwd_layer%d", l), l, 4e9, 0.35, 24<<20, 0.75),
					Deps: dep(rank, fwd[l][rank]),
				})
				prev[rank] = id
				bwdIDs[rank] = id
			}
			buckets = append(buckets, addNode(Node{
				Kind: AllReduce, Rank: -1,
				Name:      fmt.Sprintf("allreduce_bucket%d", l),
				CommBytes: cfg.BucketBytes,
				Deps:      bwdIDs,
			}))
		}
		// Optimizer step per rank, gated on every bucket.
		for rank := 0; rank < cfg.Ranks; rank++ {
			id := addNode(Node{
				Kind: Compute, Rank: rank,
				Name: "optimizer_step",
				Inv:  mkInv("optimizer_step", 0, 8e8, 0.7, 32<<20, 0.5),
				Deps: dep(rank, buckets...),
			})
			prev[rank] = id
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

package workloads

import "stemroot/internal/trace"

// HuggingFace returns the six large-scale LLM/ML workloads. scale multiplies
// the serving-request counts; 1.0 yields on the order of 3-4x10^5 kernel
// calls per workload. (The paper's suite averages 1.2x10^7 calls; the
// generator is scale-reduced by default, and callers can raise scale — the
// structure, a small kernel set invoked enormously often from prefill and
// decode contexts, is what matters for sampling behaviour.)
func HuggingFace(seed uint64, scale float64) []*trace.Workload {
	gens := []func(uint64, float64) *trace.Workload{
		hfBert, hfBloom, hfDeiT, hfGemma, hfGPT2, hfResnet50,
	}
	out := make([]*trace.Workload, 0, len(gens))
	for _, g := range gens {
		out = append(out, g(seed, scale))
	}
	return out
}

// transformerServe builds an LLM serving trace: each request runs one
// prefill pass (context 0: long sequences, large footprints) followed by
// decodeSteps incremental decode passes (context 1: single-token GEMMs).
// The two contexts give every transformer kernel a strongly bimodal
// execution-time distribution — the LLM-scale version of Figure 1.
func transformerServe(name string, seed uint64, layers, requests, decodeSteps int, headDim int64) *trace.Workload {
	b := NewBuilder(name, "huggingface", seed)
	prefillDecode := []Context{
		{WorkMult: float64(decodeSteps) / 3, FootprintMult: 4, LocalityDelta: -0.2},
		{WorkMult: 1, FootprintMult: 1},
	}
	qkv := &KernelDef{
		Name: "gemm_qkv_f16", Grid: trace.Dim3{X: 256}, Block: trace.Dim3{X: 128},
		MemIntensity: 0.25, Locality: 0.8, FP16Frac: 0.9,
		Work: headDim * 4e5, Footprint: 24 << 20, Contexts: prefillDecode, RegPerThread: 128,
	}
	attn := &KernelDef{
		Name: "flash_attention", Grid: trace.Dim3{X: 128}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.45, Locality: 0.6, FP16Frac: 0.9,
		Work: headDim * 2e5, Footprint: 32 << 20, Contexts: prefillDecode, RegPerThread: 160,
	}
	mlpUp := &KernelDef{
		Name: "gemm_mlp_up_f16", Grid: trace.Dim3{X: 256}, Block: trace.Dim3{X: 128},
		MemIntensity: 0.25, Locality: 0.8, FP16Frac: 0.9,
		Work: headDim * 8e5, Footprint: 48 << 20, Contexts: prefillDecode, RegPerThread: 128,
	}
	mlpDown := &KernelDef{
		Name: "gemm_mlp_down_f16", Grid: trace.Dim3{X: 256}, Block: trace.Dim3{X: 128},
		MemIntensity: 0.25, Locality: 0.8, FP16Frac: 0.9,
		Work: headDim * 7e5, Footprint: 48 << 20, Contexts: prefillDecode, RegPerThread: 128,
	}
	ln := &KernelDef{
		Name: "rmsnorm_f16", Grid: trace.Dim3{X: 128}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.7, Locality: 0.6,
		Work: 1.2e8, Footprint: 4 << 20, Contexts: prefillDecode, RegPerThread: 24,
	}
	rope := elementwise("rope_embed", 6e7)
	sample := &KernelDef{
		Name: "sample_top_p", Grid: trace.Dim3{X: 32}, Block: trace.Dim3{X: 256},
		MemIntensity: 0.6, Locality: 0.5, BranchDiv: 0.3,
		Work: 8e7, Footprint: 2 << 20, RegPerThread: 32,
	}

	pass := func(ctx int) {
		for l := 0; l < layers; l++ {
			b.Add(ln, ctx, 1)
			b.Add(qkv, ctx, 1)
			b.Add(rope, 0, 1)
			b.Add(attn, ctx, 1)
			b.Add(mlpUp, ctx, 1)
			b.Add(mlpDown, ctx, 1)
			b.Add(ln, ctx, 1)
		}
	}
	for req := 0; req < requests; req++ {
		pass(0) // prefill
		steps := decodeSteps - 4 + b.Rand().Intn(9)
		for s := 0; s < steps; s++ {
			pass(1) // decode
			b.Add(sample, 0, 1)
		}
	}
	return b.Workload()
}

// visionServe builds an image-classification serving trace (batched CNN or
// ViT inference over thousands of images).
func visionServe(name string, seed uint64, batches int, vit bool) *trace.Workload {
	b := NewBuilder(name, "huggingface", seed)
	if vit {
		patch := gemmDef("patch_embed_gemm", 9e8, nil)
		qkv := sgemm12864()
		soft := softmaxDef()
		ln := layernormDef()
		gelu := elementwise("gelu_fw", 1.4e8)
		for it := 0; it < batches; it++ {
			b.Add(patch, 0, 1)
			for l := 0; l < 12; l++ {
				ctx := 0
				if l >= 6 {
					ctx = 1
				}
				b.Add(ln, ctx, 1)
				b.Add(qkv, ctx, 1)
				b.Add(soft, 0, 1)
				b.Add(gelu, 0, 1)
			}
		}
		return b.Workload()
	}
	conv := winogradDef()
	bn := bnFwInf()
	relu := elementwise("relu_fw", 1e8)
	pool := maxPool()
	fc := sgemm6432()
	for it := 0; it < batches; it++ {
		b.Add(pool, 0, 1)
		for stage := 0; stage < 3; stage++ {
			for l := 0; l < 5; l++ {
				b.Add(conv, stage%2, 1)
				b.Add(bn, stage, 1)
				b.Add(relu, 0, 1)
			}
		}
		b.Add(fc, 0, 1)
	}
	return b.Workload()
}

func hfBert(seed uint64, scale float64) *trace.Workload {
	return visionServe("bert", seed, iters(6200, scale), true) // encoder-only transformer over 1000+ inputs
}

func hfBloom(seed uint64, scale float64) *trace.Workload {
	return transformerServe("bloom", seed, 30, iters(28, scale), 40, 14)
}

func hfDeiT(seed uint64, scale float64) *trace.Workload {
	return visionServe("deit", seed, iters(7000, scale), true)
}

func hfGemma(seed uint64, scale float64) *trace.Workload {
	return transformerServe("gemma", seed, 26, iters(34, scale), 42, 12)
}

func hfGPT2(seed uint64, scale float64) *trace.Workload {
	return transformerServe("gpt2", seed, 12, iters(90, scale), 44, 6)
}

func hfResnet50(seed uint64, scale float64) *trace.Workload {
	return visionServe("resnet50", seed, iters(7000, scale), false)
}

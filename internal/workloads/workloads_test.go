package workloads

import (
	"testing"

	"stemroot/internal/hwmodel"
	"stemroot/internal/stats"
	"stemroot/internal/trace"
)

func TestRodiniaSuiteShape(t *testing.T) {
	ws := Rodinia(1)
	if len(ws) != 13 {
		t.Fatalf("rodinia has %d workloads, want 13", len(ws))
	}
	byName := make(map[string]*trace.Workload)
	total := 0
	for _, w := range ws {
		if w.Suite != SuiteRodinia {
			t.Fatalf("workload %s has suite %q", w.Name, w.Suite)
		}
		if w.Len() == 0 {
			t.Fatalf("workload %s is empty", w.Name)
		}
		byName[w.Name] = w
		total += w.Len()
	}
	for _, name := range []string{
		"backprop", "bfs", "btree", "cfd", "gaussian", "heartwall", "hotspot",
		"kmeans", "lavamd", "lud", "nw", "pf_float", "srad",
	} {
		if byName[name] == nil {
			t.Fatalf("missing workload %q", name)
		}
	}
	// Paper Table 2: Rodinia averages ~1400 kernel calls.
	avg := float64(total) / float64(len(ws))
	if avg < 300 || avg > 4000 {
		t.Fatalf("rodinia average calls = %v, want O(1400)", avg)
	}
}

func TestRodiniaDeterministic(t *testing.T) {
	a := Rodinia(7)
	b := Rodinia(7)
	for i := range a {
		if a[i].Len() != b[i].Len() {
			t.Fatalf("workload %s length differs across runs", a[i].Name)
		}
		for j := range a[i].Invs {
			if a[i].Invs[j] != b[i].Invs[j] {
				t.Fatalf("workload %s invocation %d differs", a[i].Name, j)
			}
		}
	}
}

func TestHeartwallFirstCallAnomaly(t *testing.T) {
	var hw *trace.Workload
	for _, w := range Rodinia(1) {
		if w.Name == "heartwall" {
			hw = w
		}
	}
	first := hw.Invs[0].Latent.ComputeWork
	second := hw.Invs[1].Latent.ComputeWork
	ratio := float64(second) / float64(first)
	if ratio < 1000 || ratio > 2000 {
		t.Fatalf("heartwall first-call work ratio = %v, want ~1500", ratio)
	}
	// The anomaly must be visible to instruction-count profiling.
	if hw.Invs[0].InstrsPerWarp >= hw.Invs[1].InstrsPerWarp {
		t.Fatal("first-call instruction count should be far smaller")
	}
}

func TestGaussianDecay(t *testing.T) {
	var g *trace.Workload
	for _, w := range Rodinia(1) {
		if w.Name == "gaussian" {
			g = w
		}
	}
	first := g.Invs[0].Latent.ComputeWork
	last := g.Invs[len(g.Invs)-1].Latent.ComputeWork
	if last >= first/100 {
		t.Fatalf("gaussian work should decay >100x: first %d last %d", first, last)
	}
}

func TestPathfinderOutliers(t *testing.T) {
	var pf *trace.Workload
	for _, w := range Rodinia(1) {
		if w.Name == "pf_float" {
			pf = w
		}
	}
	var normal, outlier int64
	for i := range pf.Invs {
		w := pf.Invs[i].Latent.ComputeWork
		if w > outlier {
			outlier = w
		}
		if normal == 0 || w < normal {
			normal = w
		}
	}
	if outlier < normal*50 {
		t.Fatalf("pathfinder outlier ratio %v, want ~100x", float64(outlier)/float64(normal))
	}
}

func TestCASIOSuiteShape(t *testing.T) {
	ws := CASIO(1, 0.02)
	if len(ws) != 11 {
		t.Fatalf("casio has %d workloads, want 11", len(ws))
	}
	want := []string{
		"bert_infer", "bert_train", "dlrm", "gnmt", "maskrcnn",
		"resnet50_infer", "resnet50_train", "rnnt", "ssdrn34_infer",
		"unet_infer", "unet_train",
	}
	for i, w := range ws {
		if w.Name != want[i] {
			t.Fatalf("workload %d = %q, want %q", i, w.Name, want[i])
		}
		if w.Len() < 100 {
			t.Fatalf("workload %s too small: %d", w.Name, w.Len())
		}
		// ML workloads repeat a small kernel set many times.
		names := w.KernelNames()
		if len(names) > 25 {
			t.Fatalf("workload %s has %d distinct kernels, want few", w.Name, len(names))
		}
		if float64(w.Len())/float64(len(names)) < 10 {
			t.Fatalf("workload %s does not repeat kernels enough", w.Name)
		}
	}
}

func TestCASIOScale(t *testing.T) {
	small := CASIO(1, 0.02)
	big := CASIO(1, 0.1)
	if big[0].Len() <= small[0].Len() {
		t.Fatal("scale should grow invocation counts")
	}
}

func TestCASIOStaticSignaturesHideContexts(t *testing.T) {
	// Within one kernel name, instruction counts must be (nearly) constant
	// across contexts — this is the failure mode of instruction-level
	// signatures the paper exploits.
	ws := CASIO(1, 0.02)
	for _, w := range ws {
		for name, idxs := range w.GroupByName() {
			var instrs []float64
			ctxs := make(map[int]bool)
			for _, i := range idxs {
				instrs = append(instrs, float64(w.Invs[i].InstrsPerWarp))
				ctxs[w.Invs[i].Latent.Context] = true
			}
			if len(ctxs) < 2 {
				continue
			}
			if cov := stats.CoV(instrs); cov > 0.05 {
				t.Fatalf("%s/%s: multi-context kernel instruction CoV = %v, should be ~0", w.Name, name, cov)
			}
		}
	}
}

func TestMultiPeakKernelSeparatesInTime(t *testing.T) {
	// bn_fw_inf has three contexts; on the hardware model its execution
	// times must form three modes (paper Figure 1).
	ws := CASIO(1, 0.05)
	var resnet *trace.Workload
	for _, w := range ws {
		if w.Name == "resnet50_infer" {
			resnet = w
		}
	}
	model := hwmodel.New(hwmodel.RTX2080, resnet.Seed)
	var times []float64
	for i := range resnet.Invs {
		if resnet.Invs[i].Name == "bn_fw_inf_CUDNN" {
			times = append(times, model.Time(&resnet.Invs[i]))
		}
	}
	if len(times) < 100 {
		t.Fatalf("only %d bn invocations", len(times))
	}
	modes := stats.CountModes(times, 256, 0.05)
	if modes != 3 {
		t.Fatalf("bn_fw_inf time modes = %d, want 3", modes)
	}
}

func TestMemoryBoundKernelIsWide(t *testing.T) {
	ws := CASIO(1, 0.05)
	var unet *trace.Workload
	for _, w := range ws {
		if w.Name == "unet_infer" {
			unet = w
		}
	}
	model := hwmodel.New(hwmodel.RTX2080, unet.Seed)
	covByName := make(map[string]float64)
	for name, idxs := range unet.GroupByName() {
		var times []float64
		for _, i := range idxs {
			times = append(times, model.Time(&unet.Invs[i]))
		}
		covByName[name] = stats.CoV(times)
	}
	if covByName["max_pool_fw"] < 0.1 {
		t.Fatalf("max_pool CoV = %v, want wide (>0.1)", covByName["max_pool_fw"])
	}
}

func TestHuggingFaceSuiteShape(t *testing.T) {
	ws := HuggingFace(1, 0.01)
	if len(ws) != 6 {
		t.Fatalf("huggingface has %d workloads, want 6", len(ws))
	}
	want := []string{"bert", "bloom", "deit", "gemma", "gpt2", "resnet50"}
	for i, w := range ws {
		if w.Name != want[i] {
			t.Fatalf("workload %d = %q", i, w.Name)
		}
		if w.Len() < 500 {
			t.Fatalf("workload %s too small: %d", w.Name, w.Len())
		}
	}
}

func TestTransformerPrefillDecodeBimodal(t *testing.T) {
	ws := HuggingFace(1, 0.05)
	var gpt2 *trace.Workload
	for _, w := range ws {
		if w.Name == "gpt2" {
			gpt2 = w
		}
	}
	ctxs := make(map[int]int)
	for i := range gpt2.Invs {
		if gpt2.Invs[i].Name == "gemm_qkv_f16" {
			ctxs[gpt2.Invs[i].Latent.Context]++
		}
	}
	if len(ctxs) != 2 || ctxs[0] == 0 || ctxs[1] == 0 {
		t.Fatalf("qkv contexts = %v, want both prefill and decode", ctxs)
	}
	if ctxs[1] < 5*ctxs[0] {
		t.Fatalf("decode calls (%d) should dominate prefill (%d)", ctxs[1], ctxs[0])
	}
}

func TestSuiteDispatch(t *testing.T) {
	for _, name := range []string{SuiteRodinia, SuiteCASIO, SuiteHuggingFace} {
		ws, err := Suite(name, 1, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) == 0 {
			t.Fatalf("suite %s empty", name)
		}
	}
	if _, err := Suite("spec2017", 1, 1); err == nil {
		t.Fatal("expected error for unknown suite")
	}
}

func TestReduceForSim(t *testing.T) {
	w := Rodinia(1)[4] // gaussian
	r := ReduceForSim(w, 50, 64)
	if r.Len() > 51 {
		t.Fatalf("reduced length %d > 51", r.Len())
	}
	if r.Invs[0].Latent.FootprintBytes >= w.Invs[0].Latent.FootprintBytes {
		t.Fatal("footprint not reduced")
	}
	for i := range r.Invs {
		if r.Invs[i].Seq != i {
			t.Fatal("Seq not reindexed")
		}
	}
	// Decay trend must survive the stride.
	if r.Invs[r.Len()-1].Latent.ComputeWork >= r.Invs[0].Latent.ComputeWork {
		t.Fatal("gaussian decay lost in reduction")
	}
}

func TestDSESuites(t *testing.T) {
	rod := DSERodinia(1, 100)
	if len(rod) != 11 {
		t.Fatalf("DSE rodinia has %d workloads, want 11", len(rod))
	}
	for _, w := range rod {
		if w.Len() > 101 {
			t.Fatalf("%s not reduced: %d calls", w.Name, w.Len())
		}
	}
	hf := DSEHuggingFace(1, 100)
	if len(hf) != 6 {
		t.Fatalf("DSE huggingface has %d workloads", len(hf))
	}
}

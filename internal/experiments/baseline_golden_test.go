package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"
	"testing"

	"stemroot/internal/sampling"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// baselineMethods are the planners TestBaselinePlanGoldens pins.
var baselineMethods = map[string]bool{"pka": true, "sieve": true, "photon": true}

// hashPlan folds one plan into h: the method name, then per group its
// sample indices and the bits of its weight.
func hashPlan(h hash.Hash, p *sampling.Plan) {
	var b [8]byte
	h.Write([]byte(p.Method))
	for _, c := range p.Clusters {
		binary.LittleEndian.PutUint64(b[:], uint64(len(c.Samples)))
		h.Write(b[:])
		for _, s := range c.Samples {
			binary.LittleEndian.PutUint64(b[:], uint64(s))
			h.Write(b[:])
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.Weight))
		h.Write(b[:])
	}
}

// TestBaselinePlanGoldens pins every PKA, Sieve and Photon plan the paper's
// tables build, byte for byte: Config.methods over Table 3's three suites and
// dseMethods over the Table 4 workloads at DSEMaxCalls 40 and 120, each at
// seeds 1 and 7, with the hand-tuned workload maps. One SHA-256 covers a
// method's plans over every workload and rep of one set, in order. Table 3
// runs no baseline on HuggingFace, so that suite adds no set. The baselines
// ignore the profile, so none is built. The hashes were recorded while
// Photon still had its PCA path and similarity prune, Sieve its KDE
// stratifier and k-means its flat generic path; they must not change.
func TestBaselinePlanGoldens(t *testing.T) {
	want := map[string]string{
		"seed=1 dse/120 photon":        "48ecaba301eb89e3e6cae15fc84f28484860da3391c11236eb62f0b09d14d447",
		"seed=1 dse/120 pka":           "ddde3af52e7d518556532bd2b221b421a441152892cb83c6841aca543c12dee9",
		"seed=1 dse/120 sieve":         "d9dd4b94e28edee7587aecb3bde93ff6f110aa72f07c04bf63dd9d854bd9d2d3",
		"seed=1 dse/40 photon":         "b20cccbf0be80fd99560da344b059af622a552f9bd9383dbf5cd53ae34df0e0f",
		"seed=1 dse/40 pka":            "14c19c1245bdc3ee032adc3cc0b326b36b94be2775a1f280365a6855231eecbd",
		"seed=1 dse/40 sieve":          "6f416ac3e3b7543fbf3183fea1457a590b64a0a00969ec9f67905e6410d64460",
		"seed=1 table3/casio photon":   "ca0a35abe583845639b85101484d3b8fa8cdccb83341025fc0b99887a952063e",
		"seed=1 table3/casio pka":      "45d6a0d9a6c2a72d8cbd699f934139baae692289291961aeb0aa91432d89f710",
		"seed=1 table3/casio sieve":    "14476da4448553ce565c4154607f1a18dd12e1720a1effe511c84b2a300f8efb",
		"seed=1 table3/rodinia photon": "1ddbbb6f7f95b8f8c78b613d784196b50142a3501a44579cda2f7fa27290cb8a",
		"seed=1 table3/rodinia pka":    "8d0880889b277592e55d5a17d75a12b73f7a6bb761fe9a2b1692eadb5438b1d5",
		"seed=1 table3/rodinia sieve":  "e2659a2e3e3d0a2a10cd2d6756bd4feb345dcacd55b2b71c9c85c23bb51c9801",
		"seed=7 dse/120 photon":        "5d38e64df28a7c0367660e890e143c2002f8ced0cf0b4becb282ff0bed10b335",
		"seed=7 dse/120 pka":           "442fa01a05a86ed3c2fa7550ba4a1db7c6968471feae43375cc26c8e20588a33",
		"seed=7 dse/120 sieve":         "eb84ffc6b34f3b39d01b5ae309382cd1e087f021f62ce63b232d18ea260fd074",
		"seed=7 dse/40 photon":         "e1dcee8080af07fe3833803c112471c819ed3bc0dd1bc6276e4bb523e611db48",
		"seed=7 dse/40 pka":            "e72dd56a8a67a304bc892b662dff0a266bf6171a8df16493fb68022cd73d564c",
		"seed=7 dse/40 sieve":          "64ea09cccad922400f64a16b6a63c4302b0dbcbd8c7b39bc94fdf213f7294b58",
		"seed=7 table3/casio photon":   "399479e1d28bb4e913a74c5b133fa9d716527f527823600dbc54ef7611b8d0c8",
		"seed=7 table3/casio pka":      "cee751fb6f8ba2a4462b237f4f2edea36bcddf08d323cde2384f4ee02143bb07",
		"seed=7 table3/casio sieve":    "30d9fb0f6f0e5102a94d85e75a609b31f460d2473a4a6010494b9cf9f491e576",
		"seed=7 table3/rodinia photon": "fbe0e0aa662d7bd63858880d3b1a137ab36ebe177965cda2f0b738afbb29aec5",
		"seed=7 table3/rodinia pka":    "fd2f4750921aef6fbde8a4538aa39c1eb2fdf73da654fd3de471d541bd0f4da0",
		"seed=7 table3/rodinia sieve":  "575728bfa6e0677c0a1e674ecdb0b807aecc2510f9ba2353b8860f3fb8112dff",
	}
	got := map[string]string{}
	hashes := map[string]hash.Hash{}
	add := func(set string, w *trace.Workload, ms []sampling.Method) {
		for _, m := range ms {
			if !baselineMethods[m.Name()] {
				continue
			}
			plan, err := m.Plan(w, nil)
			if err != nil {
				t.Fatalf("%s %s on %s: %v", set, m.Name(), w.Name, err)
			}
			key := set + " " + m.Name()
			h, ok := hashes[key]
			if !ok {
				h = sha256.New()
				hashes[key] = h
			}
			hashPlan(h, plan)
		}
	}
	for _, seed := range []uint64{1, 7} {
		cfg := Quick()
		cfg.Seed = seed
		for _, suite := range []string{workloads.SuiteRodinia, workloads.SuiteCASIO, workloads.SuiteHuggingFace} {
			scale := cfg.CASIOScale
			if suite == workloads.SuiteHuggingFace {
				scale = cfg.HFScale
			}
			ws, err := workloads.Suite(suite, seed, scale)
			if err != nil {
				t.Fatal(err)
			}
			set := fmt.Sprintf("seed=%d table3/%s", seed, suite)
			for _, w := range ws {
				for rep := 0; rep < cfg.Reps; rep++ {
					add(set, w, cfg.methods(suite, rep))
				}
			}
		}
		for _, maxCalls := range []int{40, 120} {
			cfg.DSEMaxCalls = maxCalls
			set := fmt.Sprintf("seed=%d dse/%d", seed, maxCalls)
			for _, w := range dseWorkloads(cfg) {
				for rep := 0; rep < cfg.Reps; rep++ {
					add(set, w, cfg.dseMethods(rep))
				}
			}
		}
	}
	for k, h := range hashes {
		got[k] = hex.EncodeToString(h.Sum(nil))
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var diff []string
	for _, k := range keys {
		if got[k] != want[k] {
			diff = append(diff, fmt.Sprintf("%q: %q,", k, got[k]))
		}
	}
	if len(got) != len(want) || len(diff) > 0 {
		t.Fatalf("%d sets, want %d; differing:\n%s", len(got), len(want), strings.Join(diff, "\n"))
	}
}

package gpu

import (
	"reflect"
	"testing"

	"stemroot/internal/kernelgen"
)

// segKeyTestSpec is a fully-populated spec so every field participates in
// the sensitivity sweep below.
func segKeyTestSpec() kernelgen.Spec {
	return kernelgen.Spec{
		Name:             "segkey-test",
		Blocks:           24,
		WarpsPerBlock:    8,
		InstrsPerWarp:    512,
		FP32Frac:         0.40,
		FP16Frac:         0.05,
		SFUFrac:          0.02,
		LoadFrac:         0.20,
		StoreFrac:        0.08,
		BranchFrac:       0.06,
		FootprintBytes:   1 << 20,
		Locality:         0.7,
		RandomAccess:     0.1,
		BaseAddr:         0x1000,
		WeightsAddr:      0x8000,
		WeightsFrac:      0.25,
		BranchDivergence: 0.15,
		Seed:             42,
	}
}

// KeyFor is the tests' one-shot spelling of KeyForSegmentEngineAppend (no
// scratch buffer); exported so the external gpu_test package shares it.
func KeyFor(cfg Config, specs []kernelgen.Spec, eng Engine) SegmentKey {
	k, _ := KeyForSegmentEngineAppend(nil, cfg, specs, eng)
	return k
}

// TestSegmentKeyGolden pins the key derivation bit-for-bit. If this value
// changes, every on-disk cache entry written by earlier builds becomes
// unreachable — which is the intended invalidation mechanism, but it must
// happen deliberately (engine change + fingerprint bump), never by an
// accidental encoding change. Recorded under EngineFingerprint
// "stemroot-gpu-engine-v3-ready-id-rule" (the encoding itself is unchanged
// since v2; only the fingerprint string moved the hash).
func TestSegmentKeyGolden(t *testing.T) {
	key := KeyFor(Baseline(), []kernelgen.Spec{segKeyTestSpec()}, Engine{})
	const want = "5410e6e2a55de9e46c0dffc5ce43285418ca10175f78b09461e7e7b1cff0ceba"
	if got := key.String(); got != want {
		t.Fatalf("segment key drifted:\n got  %s\n want %s\n"+
			"If the encoding or EngineFingerprint changed intentionally, update this golden.", got, want)
	}
}

// TestSegmentKeyParGolden pins the par-mode key bit-for-bit, as
// TestSegmentKeyGolden pins the exact one. Recorded under
// ParEngineFingerprint "stemroot-gpu-engine-par-v2" while the epoch was
// still a per-run option, at its default of DefaultEpoch: keys written by
// par runs at the default epoch stay addressable now that DefaultEpoch is
// the only epoch.
func TestSegmentKeyParGolden(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		key := KeyFor(Baseline(), []kernelgen.Spec{segKeyTestSpec()}, Engine{Mode: EngineModePar, Workers: workers})
		const want = "31e21e153f7d588acbd28149951d6d828a50d5ebe656763d8d8fc3b380c53d84"
		if got := key.String(); got != want {
			t.Fatalf("par segment key (workers %d) drifted:\n got  %s\n want %s\n"+
				"If the encoding or ParEngineFingerprint changed intentionally, update this golden.", workers, got, want)
		}
	}
}

// TestSegmentKeyDistinct checks basic injectivity properties that the
// hasher's length-prefixed encoding must provide.
func TestSegmentKeyDistinct(t *testing.T) {
	cfg := Baseline()
	s := segKeyTestSpec()
	base := KeyFor(cfg, []kernelgen.Spec{s}, Engine{})

	if k := KeyFor(cfg, []kernelgen.Spec{s, s}, Engine{}); k == base {
		t.Fatal("key ignores spec count")
	}
	if k := KeyFor(cfg, nil, Engine{}); k == base {
		t.Fatal("key ignores specs entirely")
	}
	cfg2 := cfg
	cfg2.Name = cfg.Name + "x"
	if k := KeyFor(cfg2, []kernelgen.Spec{s}, Engine{}); k == base {
		t.Fatal("key ignores config identity")
	}
}

// mutateField returns a copy of v (a struct) with field i perturbed to a
// different value, recursing into nested structs (which contribute one
// mutant per leaf field).
func fieldMutants(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			for _, sub := range fieldMutants(f) {
				m := reflect.New(v.Type()).Elem()
				m.Set(v)
				m.Field(i).Set(sub)
				out = append(out, m)
			}
		default:
			m := reflect.New(v.Type()).Elem()
			m.Set(v)
			mf := m.Field(i)
			switch f.Kind() {
			case reflect.String:
				mf.SetString(f.String() + "~")
			case reflect.Bool:
				mf.SetBool(!f.Bool())
			case reflect.Int, reflect.Int64:
				mf.SetInt(f.Int() + 1)
			case reflect.Uint64:
				mf.SetUint(f.Uint() + 1)
			case reflect.Float64:
				mf.SetFloat(f.Float() + 0.125)
			default:
				panic("segkey_test: unhandled field kind " + f.Kind().String() +
					" — extend fieldMutants and the key encoder together")
			}
			out = append(out, m)
		}
	}
	return out
}

// TestSegmentKeyCoversConfig perturbs every Config field (including nested
// CacheConfig leaves) and requires the key to change. A Config field added
// without extending writeConfig makes its mutant hash identically and fails
// here — the guard against silently stale cache keys.
func TestSegmentKeyCoversConfig(t *testing.T) {
	cfg := Baseline()
	spec := segKeyTestSpec()
	base := KeyFor(cfg, []kernelgen.Spec{spec}, Engine{})
	for _, m := range fieldMutants(reflect.ValueOf(cfg)) {
		mc := m.Interface().(Config)
		if KeyFor(mc, []kernelgen.Spec{spec}, Engine{}) == base {
			t.Errorf("config mutant not reflected in key: %+v", mc)
		}
	}
}

// TestSegmentKeyCoversSpec is the same guard for kernelgen.Spec fields.
func TestSegmentKeyCoversSpec(t *testing.T) {
	cfg := Baseline()
	spec := segKeyTestSpec()
	base := KeyFor(cfg, []kernelgen.Spec{spec}, Engine{})
	for _, m := range fieldMutants(reflect.ValueOf(spec)) {
		ms := m.Interface().(kernelgen.Spec)
		if KeyFor(cfg, []kernelgen.Spec{ms}, Engine{}) == base {
			t.Errorf("spec mutant not reflected in key: %+v", ms)
		}
	}
}

// TestSegmentKeyEngineExactMatchesLegacy pins that every spelling of
// "exact" hashes to the zero Engine's key — the one TestSegmentKeyGolden
// records — so every cache entry ever written by exact-mode runs (including
// all pre-engine builds) stays addressable.
func TestSegmentKeyEngineExactMatchesLegacy(t *testing.T) {
	cfg := Baseline()
	specs := []kernelgen.Spec{segKeyTestSpec()}
	legacy := KeyFor(cfg, specs, Engine{})
	for _, eng := range []Engine{
		{Mode: EngineModeExact},
		// Workers is ignored in exact mode: it cannot change results, so
		// it must not change keys either.
		{Mode: EngineModeExact, Workers: 8},
	} {
		if k := KeyFor(cfg, specs, eng); k != legacy {
			t.Fatalf("exact engine %+v key %s != legacy %s", eng, k, legacy)
		}
	}
}

// TestSegmentKeyEngineSeparation pins the cache-honesty contract of the
// two-mode engine: relaxed-sync results are keyed under a distinct
// fingerprint, so exact and par entries can never collide in any cache
// tier, while the worker count — which cannot change results — is excluded
// from the key.
func TestSegmentKeyEngineSeparation(t *testing.T) {
	cfg := Baseline()
	specs := []kernelgen.Spec{segKeyTestSpec()}
	exact := KeyFor(cfg, specs, Engine{})
	par := KeyFor(cfg, specs, Engine{Mode: EngineModePar})
	if par == exact {
		t.Fatal("par-mode key equals exact key: caches would mix engine modes")
	}
	// Worker count is partitioning, not content: keys must not depend on it.
	for _, w := range []int{1, 4, 16} {
		if k := KeyFor(cfg, specs, Engine{Mode: EngineModePar, Workers: w}); k != par {
			t.Fatalf("par-mode key depends on worker count %d", w)
		}
	}
}

// TestEngineValidate pins mode validation at the Engine level.
func TestEngineValidate(t *testing.T) {
	for _, eng := range []Engine{{}, {Mode: "exact"}, {Mode: "par"}, {Mode: "par", Workers: 4}} {
		if err := eng.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", eng, err)
		}
	}
	if err := (Engine{Mode: "fast"}).Validate(); err == nil {
		t.Error("unknown mode accepted")
	}
}

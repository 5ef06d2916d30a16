package cachenet_test

import (
	"math/rand"
	"net"
	"testing"

	"stemroot/internal/cachenet"
	"stemroot/internal/experiments"
	"stemroot/internal/gpu"
	"stemroot/internal/simcache"
)

// benchServer starts a server for a benchmark on an ephemeral port.
func benchServer(b *testing.B) (*cachenet.Server, string) {
	b.Helper()
	srv := cachenet.NewServer(cachenet.ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	b.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// BenchmarkRemoteWarm measures a fully-warm remote sweep — every key of a
// workload-sized batch present on the server — through the two lookup
// shapes: "batched" is one BatchGet round trip for all keys (what the
// prefetch hook issues), "single" is a per-key Get loop on a reused
// connection (what a cache without the batch hook would do per segment).
// The acceptance bar is batched at least 2x faster than single; on real
// networks the gap is the round-trip count, ~keys x RTT.
func BenchmarkRemoteWarm(b *testing.B) {
	const nkeys = 512
	_, addr := benchServer(b)

	rng := rand.New(rand.NewSource(42))
	keys := make([]gpu.SegmentKey, nkeys)
	seed := cachenet.New(cachenet.ClientOptions{Addr: addr, PutWindow: nkeys * 2})
	for i := range keys {
		rng.Read(keys[i][:])
		results := make([]gpu.KernelResult, 4)
		for j := range results {
			results[j] = gpu.KernelResult{
				Cycles:       rng.Float64() * 1e6,
				Instructions: rng.Int63n(1 << 40),
				L1HitRate:    rng.Float64(),
				L2HitRate:    rng.Float64(),
			}
		}
		seed.Put(keys[i], results, 1e6)
	}
	if err := seed.Close(); err != nil { // drain puts to the server
		b.Fatal(err)
	}

	b.Run("batched", func(b *testing.B) {
		c := cachenet.New(cachenet.ClientOptions{Addr: addr})
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := c.BatchGet(keys)
			for j := range out {
				if out[j] == nil {
					b.Fatal("miss on a seeded key")
				}
			}
		}
	})
	b.Run("single", func(b *testing.B) {
		c := cachenet.New(cachenet.ClientOptions{Addr: addr})
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, key := range keys {
				if _, ok := c.Get(key); !ok {
					b.Fatal("miss on a seeded key")
				}
			}
		}
	})
}

// dseBenchCfg is a shrunk DSE sweep: the full Table 4 shape (5 variants x
// 17 workloads x 4 methods) but with tiny workloads, so one cold pass is
// benchmark-sized instead of CI-smoke-sized.
func dseBenchCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Reps = 1
	cfg.DSEMaxCalls = 12
	cfg.Sim.Workers = 1
	return cfg
}

// BenchmarkDSECached measures what the shared server is for: "cold" runs
// the DSE sweep against an empty server (pays simulation plus replication),
// "warm-remote" runs it with a cold LOCAL cache against a seeded server —
// the second machine in a fleet, answering every ground-truth segment over
// the wire via batched prefetch instead of simulating. The acceptance bar
// is warm-remote <= 25% of cold.
func BenchmarkDSECached(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv, addr := benchServer(b)
			client := cachenet.New(cachenet.ClientOptions{Addr: addr, PutWindow: 8192})
			cache, err := simcache.New(simcache.Options{Remote: client})
			if err != nil {
				b.Fatal(err)
			}
			cfg := dseBenchCfg()
			cfg.Sim.Cache = cache
			b.StartTimer()
			if _, err := experiments.Table4(cfg); err != nil {
				b.Fatal(err)
			}
			client.Close()
			b.StopTimer()
			srv.Close()
			b.StartTimer()
		}
	})
	b.Run("warm-remote", func(b *testing.B) {
		// Seed the server once with a full sweep, then each iteration is a
		// fresh process-equivalent: empty local tiers, warm server.
		_, addr := benchServer(b)
		seedClient := cachenet.New(cachenet.ClientOptions{Addr: addr, PutWindow: 8192})
		seedCache, err := simcache.New(simcache.Options{Remote: seedClient})
		if err != nil {
			b.Fatal(err)
		}
		cfg := dseBenchCfg()
		cfg.Sim.Cache = seedCache
		if _, err := experiments.Table4(cfg); err != nil {
			b.Fatal(err)
		}
		seedClient.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			client := cachenet.New(cachenet.ClientOptions{Addr: addr})
			cache, err := simcache.New(simcache.Options{Remote: client})
			if err != nil {
				b.Fatal(err)
			}
			cfg := dseBenchCfg()
			cfg.Sim.Cache = cache
			b.StartTimer()
			if _, err := experiments.Table4(cfg); err != nil {
				b.Fatal(err)
			}
			client.Close()
		}
	})
}

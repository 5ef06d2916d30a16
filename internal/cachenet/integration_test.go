package cachenet_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"stemroot/internal/cachenet"
	"stemroot/internal/experiments"
	"stemroot/internal/simcache"
)

func quickCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Reps = 1
	cfg.Sim.Workers = 2
	return cfg
}

func remoteCache(t *testing.T, addr string) (*simcache.Cache, *cachenet.Client) {
	t.Helper()
	// A window comfortably above Quick's segment count, so the strict
	// zero-miss assertion below can't be defeated by put drops under load.
	client := cachenet.New(cachenet.ClientOptions{Addr: addr, PutWindow: 8192})
	cache, err := simcache.New(simcache.Options{Remote: client})
	if err != nil {
		t.Fatal(err)
	}
	return cache, client
}

// TestRemoteTierSharesAcrossClients is the tentpole contract end to end: a
// run against an empty server seeds it; a second, cold-local run against
// the same server answers its segments from the remote tier — with
// bit-identical experiment output.
func TestRemoteTierSharesAcrossClients(t *testing.T) {
	cfg := quickCfg()
	want, err := experiments.Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, cachenet.ServerOptions{})

	seedCache, seedClient := remoteCache(t, addr)
	cfg.Sim.Cache = seedCache
	got, err := experiments.Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("seed run output differs from uncached run")
	}
	seedClient.Close() // drain puts to the server
	if st := seedClient.Stats(); st.PutDrops != 0 {
		t.Fatalf("seed run dropped %d puts with an oversized window", st.PutDrops)
	}

	warmCache, warmClient := remoteCache(t, addr)
	defer warmClient.Close()
	cfg.Sim.Cache = warmCache
	got, err = experiments.Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("remote-warm run output differs from uncached run")
	}
	st := warmCache.Stats()
	if st.RemoteHits == 0 {
		t.Fatalf("warm run answered nothing from the remote tier: %s", st)
	}
	if st.Prefetches == 0 || st.PrefetchKeys == 0 {
		t.Fatalf("warm run never batched its lookups: %s", st)
	}
	if st.Misses != 0 {
		t.Fatalf("warm run re-simulated %d segments despite a seeded server: %s", st.Misses, st)
	}
}

// TestServerKillMidRunIdentity pins the failure contract at run level: the
// server dies while a cached run is in flight, and the run still completes
// with output bit-identical to an uncached run. The kill lands at an
// arbitrary point (5ms in), so any ordering of lost lookups and dropped
// writes must degrade cleanly.
func TestServerKillMidRunIdentity(t *testing.T) {
	cfg := quickCfg()
	want, err := experiments.Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}

	srv, addr := startServer(t, cachenet.ServerOptions{})
	cache, client := remoteCache(t, addr)
	defer client.Close()
	cfg.Sim.Cache = cache

	timer := time.AfterFunc(5*time.Millisecond, func() { srv.Close() })
	defer timer.Stop()
	got, err := experiments.Figure11(cfg)
	if err != nil {
		t.Fatalf("run with dying server errored: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("run with dying server produced different output")
	}
}

// TestConcurrentClientsBitIdentity runs several clients against one server
// at once — each with its own local cache, all hammering the same keys —
// and requires every run's output to be bit-identical to the uncached
// reference. Run under -race this also exercises the client's and
// server's locking.
func TestConcurrentClientsBitIdentity(t *testing.T) {
	cfg := quickCfg()
	want, err := experiments.WarmupAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, cachenet.ServerOptions{})
	const nclients = 3
	var wg sync.WaitGroup
	errs := make([]error, nclients)
	outs := make([][]experiments.WarmupPoint, nclients)
	for i := 0; i < nclients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := cachenet.New(cachenet.ClientOptions{Addr: addr})
			defer client.Close()
			cache, err := simcache.New(simcache.Options{Remote: client})
			if err != nil {
				errs[i] = err
				return
			}
			cfg := quickCfg()
			cfg.Sim.Cache = cache
			outs[i], errs[i] = experiments.WarmupAblation(cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < nclients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(outs[i], want) {
			t.Fatalf("client %d output differs from uncached run", i)
		}
	}
}

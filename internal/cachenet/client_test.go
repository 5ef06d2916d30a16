package cachenet_test

import (
	"bufio"
	"encoding/binary"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"stemroot/internal/cachenet"
	"stemroot/internal/gpu"
	"stemroot/internal/simcache"
)

func startServer(t *testing.T, opts cachenet.ServerOptions) (*cachenet.Server, string) {
	t.Helper()
	srv := cachenet.NewServer(opts)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// seedEntries deterministically fabricates n keyed result sets.
func seedEntries(n int, rng *rand.Rand) map[gpu.SegmentKey][]gpu.KernelResult {
	entries := make(map[gpu.SegmentKey][]gpu.KernelResult, n)
	for i := 0; i < n; i++ {
		var key gpu.SegmentKey
		rng.Read(key[:])
		results := make([]gpu.KernelResult, 1+rng.Intn(8))
		for j := range results {
			results[j] = gpu.KernelResult{
				Cycles:       rng.Float64() * 1e6,
				Instructions: rng.Int63n(1 << 40),
				L1HitRate:    rng.Float64(),
				L2HitRate:    rng.Float64(),
			}
		}
		entries[key] = results
	}
	return entries
}

// drainPuts flushes a client's pipelined write window to the server by
// closing it (Close drains); callers continue with a fresh client.
func drainPuts(t *testing.T, c *cachenet.Client) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	_, addr := startServer(t, cachenet.ServerOptions{})
	entries := seedEntries(32, rand.New(rand.NewSource(1)))

	writer := cachenet.New(cachenet.ClientOptions{Addr: addr})
	for key, results := range entries {
		writer.Put(key, results, 1000)
	}
	drainPuts(t, writer)

	reader := cachenet.New(cachenet.ClientOptions{Addr: addr})
	defer reader.Close()
	for key, want := range entries {
		got, ok := reader.Get(key)
		if !ok {
			t.Fatalf("miss for stored key %s", key)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("key %s: got %+v want %+v", key, got, want)
		}
	}
	if _, ok := reader.Get(gpu.SegmentKey{0xff, 0xfe}); ok {
		t.Fatal("hit for never-stored key")
	}
	st := reader.Stats()
	if st.Hits != 32 || st.Gets != 33 {
		t.Fatalf("unexpected client stats: %+v", st)
	}
}

// TestBatchGetMatchesSingle is the batch-vs-single equivalence property:
// for a random mix of present and absent keys, one BatchGet returns
// exactly what per-key Gets return — same hits, same misses, same bytes.
func TestBatchGetMatchesSingle(t *testing.T) {
	_, addr := startServer(t, cachenet.ServerOptions{})
	rng := rand.New(rand.NewSource(7))
	entries := seedEntries(64, rng)

	writer := cachenet.New(cachenet.ClientOptions{Addr: addr})
	for key, results := range entries {
		writer.Put(key, results, 500)
	}
	drainPuts(t, writer)

	// Key list: every stored key plus interleaved absent ones and a
	// duplicate, shuffled.
	keys := make([]gpu.SegmentKey, 0, 2*len(entries)+1)
	for key := range entries {
		keys = append(keys, key)
		var absent gpu.SegmentKey
		rng.Read(absent[:])
		keys = append(keys, absent)
	}
	keys = append(keys, keys[0])
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	batched := cachenet.New(cachenet.ClientOptions{Addr: addr})
	defer batched.Close()
	single := cachenet.New(cachenet.ClientOptions{Addr: addr})
	defer single.Close()

	gotBatch := batched.BatchGet(keys)
	if len(gotBatch) != len(keys) {
		t.Fatalf("batch returned %d slots for %d keys", len(gotBatch), len(keys))
	}
	for i, key := range keys {
		gotSingle, ok := single.Get(key)
		if ok != (gotBatch[i] != nil) {
			t.Fatalf("key %s: batch hit=%v single hit=%v", key, gotBatch[i] != nil, ok)
		}
		if !reflect.DeepEqual(gotBatch[i], gotSingle) && ok {
			t.Fatalf("key %s: batch %+v single %+v", key, gotBatch[i], gotSingle)
		}
		if want, stored := entries[key]; stored && !reflect.DeepEqual(gotBatch[i], want) {
			t.Fatalf("key %s: got %+v want %+v", key, gotBatch[i], want)
		}
	}
	if st := batched.Stats(); st.BatchGets != 1 || st.BatchKeys != uint64(len(keys)) {
		t.Fatalf("unexpected batch stats: %+v", st)
	}
}

// TestDeadServerDegrades pins the failure contract: a client pointed at a
// dead address reports misses and drops writes quickly — no errors, no
// hangs — and the retry cooldown keeps later calls from re-paying the dial.
func TestDeadServerDegrades(t *testing.T) {
	// Grab a port that is then closed again.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	c := cachenet.New(cachenet.ClientOptions{Addr: addr, DialTimeout: 200 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	if _, ok := c.Get(gpu.SegmentKey{1}); ok {
		t.Fatal("hit from dead server")
	}
	if out := c.BatchGet([]gpu.SegmentKey{{1}, {2}}); out[0] != nil || out[1] != nil {
		t.Fatal("batch hit from dead server")
	}
	c.Put(gpu.SegmentKey{1}, []gpu.KernelResult{{Cycles: 1}}, 10)
	// Cooldown active: this Get must fast-fail without a fresh dial.
	if _, ok := c.Get(gpu.SegmentKey{2}); ok {
		t.Fatal("hit from dead server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("degraded path took %v — not fast-failing", elapsed)
	}
	st := c.Stats()
	if st.Errors == 0 {
		t.Fatalf("expected dial errors, got %+v", st)
	}
}

// fakeServer accepts one connection and answers every request frame with a
// fixed (op, payload) response, for exercising the client against
// corrupted and truncated responses.
func fakeServer(t *testing.T, respOp byte, payload []byte, truncateTo int) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				var hs [8]byte
				if _, err := r.Read(hs[:]); err != nil {
					return
				}
				for {
					var hdr [5]byte
					if _, err := r.Read(hdr[:]); err != nil {
						return
					}
					n := binary.LittleEndian.Uint32(hdr[1:5])
					if n > 0 {
						if _, err := r.Discard(int(n)); err != nil {
							return
						}
					}
					var out [5]byte
					out[0] = respOp
					binary.LittleEndian.PutUint32(out[1:5], uint32(len(payload)))
					conn.Write(out[:])
					if truncateTo >= 0 && truncateTo < len(payload) {
						conn.Write(payload[:truncateTo])
						return // close mid-frame
					}
					conn.Write(payload)
				}
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// TestClientRejectsCorruptedHit pins client-side verification: a server
// answering Hit with a blob whose checksum (or key) doesn't match the
// request must be treated as a miss.
func TestClientRejectsCorruptedHit(t *testing.T) {
	key := gpu.SegmentKey{0x42}
	blob := encodeFor(t, key)
	blob[60] ^= 0x80 // flip one payload bit: checksum now fails

	addr := fakeServer(t, 16 /* opHit */, blob, -1)
	c := cachenet.New(cachenet.ClientOptions{Addr: addr, OpTimeout: time.Second})
	defer c.Close()
	if _, ok := c.Get(key); ok {
		t.Fatal("client trusted a corrupted entry")
	}
	if st := c.Stats(); st.Errors == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
}

// TestClientRejectsMisdirectedHit: a structurally valid entry for a
// different key must also be a miss (embedded-key check).
func TestClientRejectsMisdirectedHit(t *testing.T) {
	other := gpu.SegmentKey{0x99}
	addr := fakeServer(t, 16, encodeFor(t, other), -1)
	c := cachenet.New(cachenet.ClientOptions{Addr: addr, OpTimeout: time.Second})
	defer c.Close()
	if _, ok := c.Get(gpu.SegmentKey{0x42}); ok {
		t.Fatal("client trusted an entry for a different key")
	}
}

// TestClientSurvivesTruncatedFrame: the server dies mid-frame; the client
// reports a miss, not a hang or a partial decode.
func TestClientSurvivesTruncatedFrame(t *testing.T) {
	key := gpu.SegmentKey{0x42}
	blob := encodeFor(t, key)
	addr := fakeServer(t, 16, blob, len(blob)/2)
	c := cachenet.New(cachenet.ClientOptions{Addr: addr, OpTimeout: time.Second})
	defer c.Close()
	if _, ok := c.Get(key); ok {
		t.Fatal("client produced a hit from a truncated frame")
	}
}

// TestClientRejectsGarbageOpcode: an unknown response opcode is a miss.
func TestClientRejectsGarbageOpcode(t *testing.T) {
	addr := fakeServer(t, 0x7f, []byte("junk"), -1)
	c := cachenet.New(cachenet.ClientOptions{Addr: addr, OpTimeout: time.Second})
	defer c.Close()
	if _, ok := c.Get(gpu.SegmentKey{1}); ok {
		t.Fatal("client trusted an unknown opcode")
	}
}

// TestServerStats exercises the Stats opcode end to end.
func TestServerStats(t *testing.T) {
	_, addr := startServer(t, cachenet.ServerOptions{})
	c := cachenet.New(cachenet.ClientOptions{Addr: addr})
	defer c.Close()
	key := gpu.SegmentKey{9}
	c.Put(key, []gpu.KernelResult{{Cycles: 3}}, 100)
	waitForHit(t, c, key)
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Puts != 1 || st.Entries != 1 || st.Hits == 0 {
		t.Fatalf("unexpected server stats: %s", st)
	}
}

// encodeFor builds a valid wire entry for key.
func encodeFor(t *testing.T, key gpu.SegmentKey) []byte {
	t.Helper()
	return simcache.EncodeEntry(key, []gpu.KernelResult{
		{Cycles: 11, Instructions: 22, L1HitRate: 0.33, L2HitRate: 0.44},
	})
}

// waitForHit polls until the async put window has drained to the server.
func waitForHit(t *testing.T, c *cachenet.Client, key gpu.SegmentKey) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := c.Get(key); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("async put never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
}

package cachenet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stemroot/internal/gpu"
	"stemroot/internal/simcache"
)

var errServerDown = errors.New("cachenet: server unreachable")

// Client defaults. Loopback round trips are tens of microseconds; the
// timeouts only exist so a wedged or partitioned server degrades the run
// instead of hanging it. A client pools up to conns request connections,
// and after a dial or I/O error fast-fails (reports misses, drops puts)
// for retryCooldown before it tries the server again.
const (
	defaultDialTimeout = 1 * time.Second
	defaultOpTimeout   = 3 * time.Second
	defaultPutWindow   = 256
	conns              = 2
	retryCooldown      = 1 * time.Second
)

// ClientOptions configure New. The zero value of every field selects a
// sensible default; only Addr is required.
type ClientOptions struct {
	// Addr is the server's TCP address (host:port).
	Addr string
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// OpTimeout bounds one request/response round trip (and one pipelined
	// write on the put connection).
	OpTimeout time.Duration
	// PutWindow bounds the queued-but-unwritten puts. When the window is
	// full further puts are dropped and counted — writes are best-effort
	// replication, never backpressure on the simulation.
	PutWindow int
}

// Client is the remote tier: it implements simcache.Remote against one
// cache server. New never fails and a Client never returns errors — a
// server that is down, slow, or lying produces misses and dropped writes,
// degrading the run to local-only caching with bit-identical results.
//
// Lookups (Get, BatchGet) use a small pool of request connections, one
// round trip per call. Writes (Put) enqueue into a bounded window drained
// by a single writer goroutine over a dedicated connection; Put frames
// have no response, so the writer streams them back-to-back and flushes
// when the window empties. Close drains the window.
type Client struct {
	opts ClientOptions

	pool chan *clientConn // idle request connections

	putMu   sync.RWMutex
	putCh   chan putReq
	closed  bool
	putDone chan struct{}

	// downUntil is a unix-nano deadline: until it passes, dials fast-fail.
	// Pooled connections that still work keep being used regardless.
	downUntil atomic.Int64

	gets, hits, batchGets, batchKeys, batchHits atomic.Uint64
	puts, putDrops, errors                      atomic.Uint64
	bytesRead, bytesWritten                     atomic.Uint64
	inFlight                                    atomic.Int64
}

var _ simcache.Remote = (*Client)(nil)

type clientConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

type putReq struct {
	key    gpu.SegmentKey
	costNs uint64
	blob   []byte
}

// New builds a client for the server at opts.Addr. It does not dial —
// connections are established lazily on first use — so construction cannot
// fail even when the server is not up yet.
func New(opts ClientOptions) *Client {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = defaultDialTimeout
	}
	if opts.OpTimeout <= 0 {
		opts.OpTimeout = defaultOpTimeout
	}
	if opts.PutWindow <= 0 {
		opts.PutWindow = defaultPutWindow
	}
	c := &Client{
		opts:    opts,
		pool:    make(chan *clientConn, conns),
		putCh:   make(chan putReq, opts.PutWindow),
		putDone: make(chan struct{}),
	}
	go c.putLoop()
	return c
}

// Close stops accepting puts, drains the queued window to the wire, and
// closes every connection. Safe to call more than once.
func (c *Client) Close() error {
	c.putMu.Lock()
	if c.closed {
		c.putMu.Unlock()
		return nil
	}
	c.closed = true
	close(c.putCh)
	c.putMu.Unlock()
	<-c.putDone
	for {
		select {
		case cc := <-c.pool:
			cc.c.Close()
		default:
			return nil
		}
	}
}

// markDown starts the retry cooldown after a dial or I/O failure.
func (c *Client) markDown() {
	c.downUntil.Store(time.Now().Add(retryCooldown).UnixNano())
}

// dial opens, handshakes, and tunes one connection, honoring the cooldown.
// A nil return means the server is (being treated as) down.
func (c *Client) dial() *clientConn {
	if time.Now().UnixNano() < c.downUntil.Load() {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.opts.Addr, c.opts.DialTimeout)
	if err != nil {
		c.errors.Add(1)
		c.markDown()
		return nil
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cc := &clientConn{
		c: conn,
		r: bufio.NewReaderSize(conn, 64<<10),
		w: bufio.NewWriterSize(conn, 64<<10),
	}
	conn.SetWriteDeadline(time.Now().Add(c.opts.OpTimeout))
	if err := writeHandshake(cc.w); err != nil || cc.w.Flush() != nil {
		conn.Close()
		c.errors.Add(1)
		c.markDown()
		return nil
	}
	c.bytesWritten.Add(handshakeSize)
	return cc
}

// acquire returns a pooled request connection or dials a fresh one.
func (c *Client) acquire() *clientConn {
	select {
	case cc := <-c.pool:
		return cc
	default:
		return c.dial()
	}
}

// release returns a healthy connection to the pool (or closes it when the
// pool is full).
func (c *Client) release(cc *clientConn) {
	select {
	case c.pool <- cc:
	default:
		cc.c.Close()
	}
}

// fail discards a connection after an error and starts the cooldown.
func (c *Client) fail(cc *clientConn) {
	cc.c.Close()
	c.errors.Add(1)
	c.markDown()
}

// roundTrip performs one request/response exchange on cc. The returned
// payload is only valid until the next use of cc.
func (c *Client) roundTrip(cc *clientConn, op byte, chunks ...[]byte) (respOp byte, payload []byte, ok bool) {
	deadline := time.Now().Add(c.opts.OpTimeout)
	cc.c.SetWriteDeadline(deadline)
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if err := writeFrame(cc.w, op, chunks...); err != nil {
		return 0, nil, false
	}
	if err := cc.w.Flush(); err != nil {
		return 0, nil, false
	}
	c.bytesWritten.Add(uint64(frameHeader + n))
	cc.c.SetReadDeadline(deadline)
	respOp, payload, err := readFrame(cc.r)
	if err != nil {
		return 0, nil, false
	}
	c.bytesRead.Add(uint64(frameHeader + len(payload)))
	return respOp, payload, true
}

// Get fetches one entry. Every failure mode — down server, timeout, bad
// frame, checksum mismatch — is a miss.
func (c *Client) Get(key gpu.SegmentKey) ([]gpu.KernelResult, bool) {
	c.gets.Add(1)
	cc := c.acquire()
	if cc == nil {
		return nil, false
	}
	op, payload, ok := c.roundTrip(cc, opGet, key[:])
	if !ok {
		c.fail(cc)
		return nil, false
	}
	switch op {
	case opMiss:
		c.release(cc)
		return nil, false
	case opHit:
		// Re-verify before trusting: the embedded key and checksum gate
		// (simcache.DecodeEntry) rejects corrupted or misdirected frames.
		results, decOK := simcache.DecodeEntry(key, payload)
		if !decOK {
			c.fail(cc)
			return nil, false
		}
		c.hits.Add(1)
		c.release(cc)
		return results, true
	default:
		c.fail(cc)
		return nil, false
	}
}

// BatchGet resolves keys in one round trip. The result slice is parallel
// to keys; misses (and every failure mode) are nil entries. A malformed
// response discards everything from it — partial trust is still trust.
func (c *Client) BatchGet(keys []gpu.SegmentKey) [][]gpu.KernelResult {
	out := make([][]gpu.KernelResult, len(keys))
	if len(keys) == 0 || len(keys) > maxBatchKeys {
		return out
	}
	c.batchGets.Add(1)
	c.batchKeys.Add(uint64(len(keys)))
	cc := c.acquire()
	if cc == nil {
		return out
	}
	req := make([]byte, 4+len(keys)*keySize)
	binary.LittleEndian.PutUint32(req[0:4], uint32(len(keys)))
	for i := range keys {
		copy(req[4+i*keySize:], keys[i][:])
	}
	op, payload, ok := c.roundTrip(cc, opBatchGet, req)
	if !ok || op != opBatch || len(payload) < 4 {
		c.fail(cc)
		return out
	}
	if binary.LittleEndian.Uint32(payload[0:4]) != uint32(len(keys)) {
		c.fail(cc)
		return out
	}
	off := 4
	var hits uint64
	for i := range keys {
		if off+4 > len(payload) {
			c.fail(cc)
			return make([][]gpu.KernelResult, len(keys))
		}
		blobLen := int(binary.LittleEndian.Uint32(payload[off : off+4]))
		off += 4
		if blobLen == 0 {
			continue
		}
		if blobLen > simcache.MaxEntryBytes || off+blobLen > len(payload) {
			c.fail(cc)
			return make([][]gpu.KernelResult, len(keys))
		}
		if results, decOK := simcache.DecodeEntry(keys[i], payload[off:off+blobLen]); decOK {
			out[i] = results
			hits++
		}
		off += blobLen
	}
	if off != len(payload) {
		c.fail(cc)
		return make([][]gpu.KernelResult, len(keys))
	}
	c.batchHits.Add(hits)
	c.release(cc)
	return out
}

// Put replicates one computed entry to the server, asynchronously: the
// encoded blob enqueues into the bounded window and the call returns.
// Overflow (or a closed client) drops the write and counts it.
func (c *Client) Put(key gpu.SegmentKey, results []gpu.KernelResult, costNs int64) {
	if costNs < 0 {
		costNs = 0
	}
	req := putReq{key: key, costNs: uint64(costNs), blob: simcache.EncodeEntry(key, results)}
	c.putMu.RLock()
	defer c.putMu.RUnlock()
	if c.closed {
		c.putDrops.Add(1)
		return
	}
	select {
	case c.putCh <- req:
		c.inFlight.Add(1)
	default:
		c.putDrops.Add(1)
	}
}

// putLoop is the single writer draining the put window over a dedicated
// connection. Frames stream back-to-back (Put has no response) and the
// buffer is flushed when the window empties — the pipelining that makes a
// cold run's write-back cost a memcpy, not a round trip per segment.
func (c *Client) putLoop() {
	defer close(c.putDone)
	var cc *clientConn
	defer func() {
		if cc == nil {
			return
		}
		// Drain barrier: frames are processed in order, so once the server
		// answers a trailing Stats request every prior Put on this
		// connection has been applied. Close therefore guarantees queued
		// writes are actually in the shared pool, not merely on the wire —
		// what lets one run seed a server for the next.
		if cc.w.Flush() == nil {
			c.roundTrip(cc, opStats)
		}
		cc.c.Close()
	}()
	for req := range c.putCh {
		if cc == nil {
			cc = c.dial()
		}
		if cc == nil {
			c.putDrops.Add(1)
			c.inFlight.Add(-1)
			continue
		}
		var cost [8]byte
		binary.LittleEndian.PutUint64(cost[:], req.costNs)
		cc.c.SetWriteDeadline(time.Now().Add(c.opts.OpTimeout))
		if err := writeFrame(cc.w, opPut, req.key[:], cost[:], req.blob); err != nil {
			c.fail(cc)
			cc = nil
			c.putDrops.Add(1)
			c.inFlight.Add(-1)
			continue
		}
		c.bytesWritten.Add(uint64(frameHeader + keySize + 8 + len(req.blob)))
		c.puts.Add(1)
		c.inFlight.Add(-1)
		if len(c.putCh) == 0 {
			if err := cc.w.Flush(); err != nil {
				c.fail(cc)
				cc = nil
			}
		}
	}
}

// Stats snapshots the client-side counters.
func (c *Client) Stats() simcache.RemoteStats {
	return simcache.RemoteStats{
		Gets:         c.gets.Load(),
		Hits:         c.hits.Load(),
		BatchGets:    c.batchGets.Load(),
		BatchKeys:    c.batchKeys.Load(),
		BatchHits:    c.batchHits.Load(),
		Puts:         c.puts.Load(),
		PutDrops:     c.putDrops.Load(),
		Errors:       c.errors.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		InFlight:     c.inFlight.Load(),
	}
}

// ServerStats queries the server's own counters (the Stats opcode). The
// single error return in the package: callers are diagnostics (tests,
// cmd/cacheserver clients), not the simulation path.
func (c *Client) ServerStats() (ServerStats, error) {
	var st ServerStats
	cc := c.acquire()
	if cc == nil {
		return st, errServerDown
	}
	op, payload, ok := c.roundTrip(cc, opStats)
	if !ok || op != opStatsR {
		c.fail(cc)
		return st, errServerDown
	}
	if err := json.Unmarshal(payload, &st); err != nil {
		c.fail(cc)
		return st, err
	}
	c.release(cc)
	return st, nil
}

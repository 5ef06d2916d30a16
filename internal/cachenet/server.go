package cachenet

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"stemroot/internal/gpu"
	"stemroot/internal/simcache"
)

// DefaultServerMaxBytes bounds the server's store when
// ServerOptions.MaxBytes is zero: 1 GiB holds on the order of 10^6..10^7
// segment entries — a fleet-sized ground-truth pool.
const DefaultServerMaxBytes = 1 << 30

// srvShardCount mirrors internal/simcache's 16-shard design: a power of two
// so the key's leading byte selects a shard with a mask, enough lock
// domains that concurrent clients rarely collide.
const srvShardCount = 16

// srvEntryOverhead approximates the fixed per-entry bookkeeping (map slot,
// struct, heap slot) added to the blob length when accounting bytes.
const srvEntryOverhead = 160

// ServerOptions configure NewServer.
type ServerOptions struct {
	// MaxBytes bounds the stored entry bytes (approximate, blob payload
	// plus fixed per-entry overhead). 0 selects DefaultServerMaxBytes;
	// negative disables the bound.
	MaxBytes int64
}

// ServerStats is a point-in-time snapshot of the server's counters, served
// over the Stats opcode (JSON).
type ServerStats struct {
	Gets       uint64 `json:"gets"`
	Hits       uint64 `json:"hits"`
	BatchGets  uint64 `json:"batch_gets"`
	BatchKeys  uint64 `json:"batch_keys"`
	BatchHits  uint64 `json:"batch_hits"`
	Puts       uint64 `json:"puts"`
	PutRejects uint64 `json:"put_rejects"`
	Evictions  uint64 `json:"evictions"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	Conns      int    `json:"conns"`
}

// String renders the snapshot as a stable single-line key=value list.
func (s ServerStats) String() string {
	return fmt.Sprintf(
		"gets=%d hits=%d batch_gets=%d batch_keys=%d batch_hits=%d puts=%d put_rejects=%d evictions=%d entries=%d bytes=%d conns=%d",
		s.Gets, s.Hits, s.BatchGets, s.BatchKeys, s.BatchHits, s.Puts, s.PutRejects,
		s.Evictions, s.Entries, s.Bytes, s.Conns)
}

// srvEntry is one stored segment result: the verified blob plus the
// metadata cost-aware eviction ranks it by. blobs are immutable once
// stored, so handlers may write them to sockets outside the shard lock.
type srvEntry struct {
	key    gpu.SegmentKey
	blob   []byte
	costNs float64
	prio   float64 // GDSF priority: shard clock + costNs/size at last touch
	hi     int     // index in the shard's eviction heap
}

// prioHeap is a min-heap over entry priority — the eviction order.
type prioHeap []*srvEntry

func (h prioHeap) Len() int            { return len(h) }
func (h prioHeap) Less(i, j int) bool  { return h[i].prio < h[j].prio }
func (h prioHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].hi = i; h[j].hi = j }
func (h *prioHeap) Push(x interface{}) { e := x.(*srvEntry); e.hi = len(*h); *h = append(*h, e) }
func (h *prioHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// srvShard is one lock domain of the store: a map for lookup, a priority
// heap for eviction, and the GreedyDual-style aging clock.
//
// Eviction is cost-aware (GreedyDual-Size with simulation cost as the
// value): an entry's priority is clock + costNs/size — what recomputing it
// costs per byte it occupies — and the clock rises to each victim's
// priority as it is evicted. Entries that were expensive to simulate
// therefore outlive cheap ones under byte pressure regardless of insertion
// order, and the rising clock ages out entries that stop being touched (a
// touch refreshes priority against the current clock), so a once-expensive
// entry cannot pin its bytes forever.
type srvShard struct {
	mu    sync.Mutex
	items map[gpu.SegmentKey]*srvEntry
	ord   prioHeap
	bytes int64
	clock float64
}

// Server is the sharded segment-result cache server. Create with NewServer,
// run with Serve, stop with Close (which unblocks Serve
// and terminates open connections).
type Server struct {
	maxShard int64 // per-shard byte bound; <0 = unbounded
	shards   [srvShardCount]srvShard

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	gets, hits, batchGets, batchKeys, batchHits atomic.Uint64
	puts, putRejects, evictions                 atomic.Uint64
}

// NewServer builds a server.
func NewServer(opts ServerOptions) *Server {
	s := &Server{conns: make(map[net.Conn]struct{})}
	switch {
	case opts.MaxBytes == 0:
		s.maxShard = DefaultServerMaxBytes / srvShardCount
	case opts.MaxBytes < 0:
		s.maxShard = -1
	default:
		s.maxShard = opts.MaxBytes / srvShardCount
		if s.maxShard < 1 {
			s.maxShard = 1
		}
	}
	for i := range s.shards {
		s.shards[i].items = make(map[gpu.SegmentKey]*srvEntry)
	}
	return s
}

func (s *Server) shardFor(key gpu.SegmentKey) *srvShard {
	return &s.shards[int(key[0])&(srvShardCount-1)]
}

// Serve accepts connections on lis until Close (which returns nil here) or
// a non-temporary accept error.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("cachenet: server closed")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if tc, ok := conn.(*net.TCPConn); ok {
			// Request/response round trips are latency-bound; never trade
			// them for Nagle batching.
			tc.SetNoDelay(true)
		}
		go s.handle(conn)
	}
}

// Addr returns the listening address once Serve has been called — how
// tests and CI discover the port of a ":0" listener.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Close stops accepting, terminates every open connection, and unblocks
// Serve. Stored entries are NOT flushed anywhere — the server is a cache,
// and clients are built to survive losing it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if lis != nil {
		err = lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Gets:       s.gets.Load(),
		Hits:       s.hits.Load(),
		BatchGets:  s.batchGets.Load(),
		BatchKeys:  s.batchKeys.Load(),
		BatchHits:  s.batchHits.Load(),
		Puts:       s.puts.Load(),
		PutRejects: s.putRejects.Load(),
		Evictions:  s.evictions.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.items)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	s.mu.Lock()
	st.Conns = len(s.conns)
	s.mu.Unlock()
	return st
}

// handle runs one connection's frame loop. Any protocol violation closes
// the connection — the client treats that as a degradation, not an error.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	if err := readHandshake(r); err != nil {
		return
	}
	for {
		op, payload, err := readFrame(r)
		if err != nil {
			return
		}
		switch op {
		case opGet:
			if len(payload) != keySize {
				return
			}
			var key gpu.SegmentKey
			copy(key[:], payload)
			blob := s.get(key)
			s.gets.Add(1)
			if blob == nil {
				err = writeFrame(w, opMiss)
			} else {
				s.hits.Add(1)
				err = writeFrame(w, opHit, blob)
			}
		case opBatchGet:
			err = s.handleBatch(w, payload)
		case opPut:
			s.handlePut(payload)
			continue // one-way: no response, no flush
		case opStats:
			var buf []byte
			buf, err = json.Marshal(s.Stats())
			if err == nil {
				err = writeFrame(w, opStatsR, buf)
			}
		default:
			return
		}
		if err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// handleBatch answers one BatchGet: count + (length, blob) per key, zero
// length marking a miss.
func (s *Server) handleBatch(w *bufio.Writer, payload []byte) error {
	if len(payload) < 4 {
		return errors.New("cachenet: short batch request")
	}
	n := binary.LittleEndian.Uint32(payload[0:4])
	if n > maxBatchKeys || len(payload) != 4+int(n)*keySize {
		return errors.New("cachenet: malformed batch request")
	}
	s.batchGets.Add(1)
	s.batchKeys.Add(uint64(n))

	// Resolve all keys first (shard locks only), then stream the response.
	blobs := make([][]byte, n)
	total := 4
	var hits uint64
	for i := 0; i < int(n); i++ {
		var key gpu.SegmentKey
		copy(key[:], payload[4+i*keySize:])
		if blob := s.get(key); blob != nil {
			blobs[i] = blob
			total += len(blob)
			hits++
		}
		total += 4
	}
	s.batchHits.Add(hits)

	var hdr [frameHeader]byte
	hdr[0] = opBatch
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(total))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], n)
	if _, err := w.Write(scratch[:]); err != nil {
		return err
	}
	for _, blob := range blobs {
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(blob)))
		if _, err := w.Write(scratch[:]); err != nil {
			return err
		}
		if blob != nil {
			if _, err := w.Write(blob); err != nil {
				return err
			}
		}
	}
	return nil
}

// handlePut verifies and stores one entry. Malformed or mismatched blobs
// are rejected (counted, never stored): the server refuses to become a
// distribution channel for corrupt ground truth even though clients would
// catch it on read.
func (s *Server) handlePut(payload []byte) {
	if len(payload) < keySize+8 {
		s.putRejects.Add(1)
		return
	}
	var key gpu.SegmentKey
	copy(key[:], payload[:keySize])
	costNs := binary.LittleEndian.Uint64(payload[keySize : keySize+8])
	blob := payload[keySize+8:]
	if !simcache.VerifyEntry(key, blob) {
		s.putRejects.Add(1)
		return
	}
	s.puts.Add(1)
	s.put(key, blob, float64(costNs))
}

// get returns the stored blob for key (nil when absent) and refreshes its
// eviction priority against the shard clock.
func (s *Server) get(key gpu.SegmentKey) []byte {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e := sh.items[key]
	var blob []byte
	if e != nil {
		e.prio = sh.clock + e.costNs/float64(len(e.blob)+srvEntryOverhead)
		heap.Fix(&sh.ord, e.hi)
		blob = e.blob
	}
	sh.mu.Unlock()
	return blob
}

// put stores blob under key and enforces the byte bound by evicting the
// lowest-priority entries. Keys are content addresses, so a duplicate put
// carries identical results; only the recorded cost is refreshed (keeping
// the maximum seen — different machines may time the same segment
// differently, and the entry is worth the most anyone paid for it).
func (s *Server) put(key gpu.SegmentKey, blob []byte, costNs float64) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if e := sh.items[key]; e != nil {
		if costNs > e.costNs {
			e.costNs = costNs
			e.prio = sh.clock + e.costNs/float64(len(e.blob)+srvEntryOverhead)
			heap.Fix(&sh.ord, e.hi)
		}
		sh.mu.Unlock()
		return
	}
	stored := make([]byte, len(blob))
	copy(stored, blob)
	e := &srvEntry{key: key, blob: stored, costNs: costNs}
	e.prio = sh.clock + e.costNs/float64(len(stored)+srvEntryOverhead)
	sh.items[key] = e
	heap.Push(&sh.ord, e)
	sh.bytes += int64(len(stored) + srvEntryOverhead)
	if s.maxShard >= 0 {
		// len > 1 keeps at least the just-inserted entry: an entry larger
		// than the whole shard budget still gets stored (and becomes the
		// next victim) rather than thrashing insert/evict forever.
		for sh.bytes > s.maxShard && len(sh.ord) > 1 {
			victim := heap.Pop(&sh.ord).(*srvEntry)
			delete(sh.items, victim.key)
			sh.bytes -= int64(len(victim.blob) + srvEntryOverhead)
			sh.clock = victim.prio
			s.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
}

// Package simcache is a content-addressed cache of replay-segment simulation
// results — the "pay the full simulation once, reuse it everywhere"
// mechanism behind the experiment harness. Keys are gpu.SegmentKey content
// addresses (engine fingerprint + gpu.Config + spec sequence, see
// gpu.KeyForSegmentEngineAppend), so a hit is bit-identical to a fresh simulation by
// construction: the engine is deterministic in exactly the hashed inputs,
// and the determinism contract from the parallel/arena work is what makes
// the substitution safe.
//
// The product's cache has two tiers on one host. An in-memory LRU ring,
// sharded and bounded by bytes, holds what this process computed or read
// back. An optional on-disk tier (Options.Dir) persists entries across
// processes in one append-only pack of checksummed records: one read-only
// mapping and one scan's index per version of the file, shared by every
// Cache of the process, outside the byte bound. A pack hit takes no lock and
// decodes its record straight into the caller's slice, verified at every
// use: a corrupt, torn or since-truncated record is discarded, never
// trusted, and degrades to a simulation. Processes share results through a
// directory whose filesystem makes an O_APPEND write atomic across writers
// (a local filesystem does; NFS does not).
//
// Options.Remote attaches a third tier behind the disk, under the same
// verification; only the benchmark's loopback measurement of
// internal/cachenet attaches one.
//
// # Concurrency
//
// A Cache is safe for concurrent use. GetOrCompute deduplicates concurrent
// misses per key (singleflight): parallel workers racing on the same segment
// simulate it exactly once and share the result. Stats counters are atomic.
// Cached result slices are shared across callers and are read-only by
// contract (gpu.SegmentCache).
package simcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stemroot/internal/gpu"
)

// DefaultMaxBytes bounds the in-memory tier when Options.MaxBytes is zero:
// at 32 bytes per kernel result plus bookkeeping, 10^5..10^6 segments, far
// beyond any experiment run.
const DefaultMaxBytes = 256 << 20

// shardCount is fixed: a power of two so the key's leading byte selects a
// shard with a mask. 16 shards keep lock contention negligible at the
// worker counts the pipeline uses.
const shardCount = 16

// Remote is the optional third cache tier: a shared result pool behind the
// local memory and disk tiers — an internal/cachenet client in the
// benchmark harness, the only caller that attaches one. Every method is
// best-effort and must never block a simulation on a sick server: a
// timeout, connection failure, or verification mismatch is a miss (or a
// dropped write), and the caller degrades to simulating locally —
// identical results, only slower. Implementations must be safe for
// concurrent use and must verify entries (embedded key + checksum) before
// returning them.
type Remote interface {
	// Get fetches one verified entry; ok is false on miss or any failure.
	Get(key gpu.SegmentKey) (results []gpu.KernelResult, ok bool)
	// BatchGet fetches many keys in one round trip; out[i] is nil when
	// keys[i] missed (or on any failure). len(out) == len(keys).
	BatchGet(keys []gpu.SegmentKey) [][]gpu.KernelResult
	// Put stores an entry together with its recompute cost in nanoseconds
	// (the measured simulation time), the weight cost-aware eviction uses
	// to keep expensive-to-recompute entries alive. May be asynchronous.
	Put(key gpu.SegmentKey, results []gpu.KernelResult, costNs int64)
	// Stats snapshots the client's wire-level counters.
	Stats() RemoteStats
}

// RemoteStats are the wire-level counters of a Remote implementation,
// surfaced through Cache.Stats so one -cachestats summary covers every tier.
type RemoteStats struct {
	// Gets/Hits count single-key lookups and how many returned an entry;
	// BatchGets/BatchKeys/BatchHits the batched equivalent (one BatchGet
	// carries BatchKeys keys).
	Gets, Hits, BatchGets, BatchKeys, BatchHits uint64
	// Puts counts entries queued for write-back; PutDrops those discarded
	// because the pipelined write window was full or the server was down.
	Puts, PutDrops uint64
	// Errors counts I/O, protocol, and verification failures — each one
	// degraded to a miss or a dropped write, never an error.
	Errors uint64
	// BytesRead/BytesWritten count entry payload bytes over the wire.
	BytesRead, BytesWritten uint64
	// InFlight is the current depth of the pipelined write queue.
	InFlight int64
}

// Options configure New.
type Options struct {
	// MaxBytes bounds the in-memory tier, what this process computed or
	// read back (approximate, counting payload plus fixed per-entry
	// overhead); the mapped pack is not counted. 0 selects DefaultMaxBytes;
	// negative disables the in-memory bound (unbounded).
	MaxBytes int64
	// Dir enables the on-disk tier in this directory (created if missing):
	// one pack file, mapped at the first lookup. Empty disables it.
	Dir string
	// Remote attaches a shared remote tier behind memory and disk (see
	// Remote; internal/cachenet's Client is the canonical implementation).
	// nil disables it.
	Remote Remote
}

// Stats is a point-in-time snapshot of the cache counters across all tiers.
type Stats struct {
	// Hits counts lookups served without simulating: memory, disk and
	// remote hits, and singleflight followers that shared a leader's result.
	Hits uint64
	// MemHits / DiskHits / RemoteHits / Shared break Hits down by source; a
	// pack record's first use is its disk hit. RemoteHits also counts what
	// a Prefetch batch pulled into the ring (then used as MemHits).
	MemHits, DiskHits, RemoteHits, Shared uint64
	// Misses counts calls that ran the compute function.
	Misses uint64
	// Evictions counts entries the byte bound let go of from the LRU ring.
	Evictions uint64
	// Bytes is what the LRU ring holds, the only part of the cache the byte
	// bound covers. Entries counts the pack index's rows and the ring's
	// entries.
	Bytes   int64
	Entries int
	// DiskErrors counts damaged runs of the pack — torn, bit-rotted or
	// foreign bytes, each skipped to the next record that verifies — and
	// records that failed to verify, or could not be read, at a use.
	DiskErrors uint64
	// DiskWriteErrors counts entries the disk tier failed to store (a full
	// or read-only directory, a file size limit).
	DiskWriteErrors uint64
	// Prefetches / PrefetchKeys count batched remote lookups issued by the
	// segment runner's prefetch pass and the keys they carried.
	Prefetches, PrefetchKeys uint64
	// HasRemote reports whether a remote tier is attached; Remote then
	// holds its wire-level counters.
	HasRemote bool
	Remote    RemoteStats
}

// Cache implements gpu.SegmentCache and gpu.SegmentDecoder (and
// gpu.BatchPrefetcher when a remote tier is attached). See the package documentation.
type Cache struct {
	shards   [shardCount]shard
	maxShard int64 // per-shard byte bound; <0 = unbounded
	dir      string
	remote   Remote

	// packPath is the NUL-terminated path of dir's pack; packOnce loads it
	// at the first lookup into index, shared and read-only, and indexed, its
	// row count for Stats. Only this Cache's bits change, atomically, so a
	// pack hit takes no lock: a row's used bit at its first use, the disk
	// hit, and its bad bit when its record fails a check, after which it is
	// not served. pack is the append handle, opened at the first write and
	// guarded, with the offsets it reports, by packMu; the os.File's
	// finalizer closes it, as every record is synced already.
	packPath  []byte
	packOnce  sync.Once
	index     *packMap
	used, bad []atomic.Uint64
	indexed   atomic.Int64
	packMu    sync.Mutex
	pack      *os.File

	hits, memHits, diskHits, shared atomic.Uint64
	misses, evictions, diskErrors   atomic.Uint64
	diskWriteErrors                 atomic.Uint64
	remoteHits                      atomic.Uint64
	prefetches, prefetchKeys        atomic.Uint64

	// prefetchMissed holds keys the last Prefetch batches could not resolve,
	// so that their miss makes no second round trip; the first load that
	// sees one removes it, which bounds the set by the segments in flight.
	prefetchMissed sync.Map // gpu.SegmentKey -> struct{}
}

// entry is one result this process computed, fetched or read back, in its
// shard's ring — and before that the singleflight record of its load: the
// leader puts it in the table with loading set, followers wait on done and
// read results and err, and it then joins the ring or leaves the table.
type entry struct {
	key        gpu.SegmentKey
	results    []gpu.KernelResult
	prev, next *entry
	err        error
	done       sync.WaitGroup
	end        int64 // pack offset just past the entry's record; 0 if none
	loading    bool  // guarded by the shard lock
}

// packLoc is where a record sits in the pack: it ends at end and carries n
// results.
type packLoc struct {
	end int64
	n   int
}

// shard is one lock domain: an LRU over its share of the key space, entries
// still loading included in items but not in the ring.
type shard struct {
	mu    sync.Mutex
	items map[gpu.SegmentKey]*entry // made at the first insert (put)
	// head is most recently used; tail least. Sentinel-free doubly linked
	// list: head/tail are nil when empty.
	head, tail *entry
	bytes      int64 // the ring's
	// spilled indexes the records this cache wrote or read back and the
	// ring let go of since; readDisk takes them back. nil until the first
	// one.
	spilled map[gpu.SegmentKey]packLoc
}

// New builds a cache. The returned error is non-nil only when the disk tier
// is requested but its directory cannot be created.
func New(opts Options) (*Cache, error) {
	c := &Cache{dir: opts.Dir, remote: opts.Remote}
	switch {
	case opts.MaxBytes == 0:
		c.maxShard = DefaultMaxBytes / shardCount
	case opts.MaxBytes < 0:
		c.maxShard = -1
	default:
		c.maxShard = opts.MaxBytes / shardCount
		if c.maxShard < 1 {
			c.maxShard = 1
		}
	}
	if c.dir != "" {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, err
		}
		c.packPath = append([]byte(filepath.Join(c.dir, packName)), 0)
	}
	return c, nil
}

// entryOverhead approximates the fixed per-entry cost (map slot, entry
// struct, slice header) added to the payload when accounting bytes.
const entryOverhead = 128

// entryBytes is what an entry of n results counts toward the byte bound.
func entryBytes(n int) int64 { return int64(n)*resultWireSize + entryOverhead }

func (c *Cache) shardFor(key gpu.SegmentKey) *shard {
	return &c.shards[int(key[0])&(shardCount-1)]
}

// GetOrCompute implements gpu.SegmentCache; a pack hit is decoded into a
// slice of its own.
func (c *Cache) GetOrCompute(key gpu.SegmentKey, compute func() ([]gpu.KernelResult, error)) ([]gpu.KernelResult, error) {
	if results, ok := c.fromPack(key, nil); ok {
		return results, nil
	}
	sh := c.shardFor(key)

	sh.mu.Lock()
	if e := sh.items[key]; e != nil {
		if !e.loading {
			sh.moveToFront(e)
			sh.mu.Unlock()
			c.hits.Add(1)
			c.memHits.Add(1)
			return e.results, nil
		}
		// Another goroutine is loading this key; share its result.
		sh.mu.Unlock()
		e.done.Wait()
		if e.err == nil {
			c.hits.Add(1)
			c.shared.Add(1)
		}
		return e.results, e.err
	}
	e := &entry{key: key, loading: true}
	e.done.Add(1)
	sh.put(e)
	sh.mu.Unlock()

	// Leader path: disk tier, then remote, then compute. A failed load
	// leaves the table, so it can be retried later.
	results, err := c.load(e, compute)

	sh.mu.Lock()
	e.results, e.err, e.loading = results, err, false
	if err == nil {
		c.link(sh, e)
	} else {
		delete(sh.items, key)
	}
	sh.mu.Unlock()
	e.done.Done()
	return results, err
}

// load resolves a miss of e's key tier by tier — a record the ring let go
// of, the remote server, compute — counts which one served it, and records
// in e.end where the entry sits in the pack. A computation is written back to every outer tier
// best-effort, with its simulation time for the server's cost-aware
// eviction; a remote hit is replicated to disk, so a later run here survives
// a dead server.
func (c *Cache) load(e *entry, compute func() ([]gpu.KernelResult, error)) (results []gpu.KernelResult, err error) {
	key := e.key
	if c.dir != "" {
		var ok bool
		if results, e.end, ok = c.readDisk(key); ok {
			c.hits.Add(1)
			c.diskHits.Add(1)
			return results, nil
		}
	}
	if c.remote != nil {
		// Skip the wire when a just-issued Prefetch already learned this
		// key is absent remotely; the entry is consumed so later calls
		// (after someone else may have stored it) ask again.
		if _, missed := c.prefetchMissed.LoadAndDelete(key); !missed {
			if results, ok := c.remote.Get(key); ok {
				if c.dir != "" {
					e.end = c.writeDisk(key, results)
				}
				c.hits.Add(1)
				c.remoteHits.Add(1)
				return results, nil
			}
		}
	}
	start := time.Now()
	results, err = compute()
	if err != nil {
		return nil, err
	}
	c.misses.Add(1)
	costNs := time.Since(start).Nanoseconds()
	if c.dir != "" {
		e.end = c.writeDisk(key, results) // best-effort; failures only cost reuse
	}
	if c.remote != nil {
		c.remote.Put(key, results, costNs)
	}
	return results, nil
}

// WantPrefetch implements gpu.BatchPrefetcher: up-front key derivation pays
// off only when a remote tier can turn the keys into one BatchGet round
// trip.
func (c *Cache) WantPrefetch() bool { return c.remote != nil }

// Prefetch implements gpu.BatchPrefetcher: the announced keys that no local
// tier holds go to the remote tier once each, in key order, in one BatchGet
// (keys is only read); every hit seeds the ring, and every miss is
// remembered, so the per-segment lookups that follow make no round trip.
// Purely a performance hint: what GetOrCompute returns is unchanged.
func (c *Cache) Prefetch(keys []gpu.SegmentKey) {
	if c.remote == nil {
		return
	}
	if c.dir != "" {
		c.packOnce.Do(c.loadPack)
	}
	// The keys not already local, once each (identical segments share one
	// content address): sorted, so that duplicates are neighbours.
	need := make([]gpu.SegmentKey, 0, len(keys))
	for _, key := range keys {
		sh := c.shardFor(key)
		sh.mu.Lock()
		_, resident := sh.items[key]
		_, spilled := sh.spilled[key]
		resident = resident || spilled
		sh.mu.Unlock()
		if !resident && c.index.find(key) < 0 {
			need = append(need, key)
		}
	}
	slices.SortFunc(need, func(a, b gpu.SegmentKey) int { return bytes.Compare(a[:], b[:]) })
	need = slices.Compact(need)
	if len(need) == 0 {
		return
	}
	c.prefetches.Add(1)
	c.prefetchKeys.Add(uint64(len(need)))
	got := c.remote.BatchGet(need)
	for i, results := range got {
		if results == nil {
			c.prefetchMissed.Store(need[i], struct{}{})
			continue
		}
		c.remoteHits.Add(1)
		var end int64
		if c.dir != "" {
			end = c.writeDisk(need[i], results)
		}
		sh := c.shardFor(need[i])
		sh.mu.Lock()
		if sh.items[need[i]] == nil { // else present or loading: the same results
			e := &entry{key: need[i], results: results, end: end}
			sh.put(e)
			c.link(sh, e)
		}
		sh.mu.Unlock()
	}
}

// put adds e to the table, made at the shard's first insert (a sweep the
// pack serves never makes one). Caller holds sh.mu.
func (sh *shard) put(e *entry) {
	if sh.items == nil {
		sh.items = make(map[gpu.SegmentKey]*entry)
	}
	sh.items[e.key] = e
}

// link puts a loaded entry at the head of the ring and holds the ring to the
// shard's share of the byte bound: entries leave from the tail, the newest
// stays even past it, and one with a pack record is spilled, to be read back
// rather than recomputed. Caller holds sh.mu.
func (c *Cache) link(sh *shard, e *entry) {
	sh.bytes += entryBytes(len(e.results))
	sh.pushFront(e)
	for c.maxShard >= 0 && sh.bytes > c.maxShard && sh.tail != e {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.items, victim.key)
		sh.bytes -= entryBytes(len(victim.results))
		c.evictions.Add(1)
		if victim.end > 0 {
			if sh.spilled == nil {
				sh.spilled = make(map[gpu.SegmentKey]packLoc)
			}
			sh.spilled[victim.key] = packLoc{victim.end, len(victim.results)}
		}
	}
}

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// String renders the snapshot as the stable single-line key=value list that
// the CLIs print under -cachestats and CI parses: the remote block only when
// a remote tier is attached, and a new counter after the ones before it.
func (s Stats) String() string {
	base := fmt.Sprintf(
		"hits=%d (mem=%d disk=%d remote=%d shared=%d) misses=%d entries=%d bytes=%d evictions=%d disk_errors=%d disk_write_errors=%d",
		s.Hits, s.MemHits, s.DiskHits, s.RemoteHits, s.Shared, s.Misses, s.Entries, s.Bytes, s.Evictions, s.DiskErrors, s.DiskWriteErrors)
	if !s.HasRemote {
		return base
	}
	r := s.Remote
	return base + fmt.Sprintf(
		" | remote: prefetches=%d prefetch_keys=%d gets=%d get_hits=%d batch_gets=%d batch_keys=%d batch_hits=%d puts=%d put_drops=%d errors=%d bytes_rx=%d bytes_tx=%d in_flight=%d",
		s.Prefetches, s.PrefetchKeys, r.Gets, r.Hits, r.BatchGets, r.BatchKeys, r.BatchHits,
		r.Puts, r.PutDrops, r.Errors, r.BytesRead, r.BytesWritten, r.InFlight)
}

// Stats snapshots the counters of every tier.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:            c.hits.Load(),
		MemHits:         c.memHits.Load(),
		DiskHits:        c.diskHits.Load(),
		RemoteHits:      c.remoteHits.Load(),
		Shared:          c.shared.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.evictions.Load(),
		DiskErrors:      c.diskErrors.Load(),
		Prefetches:      c.prefetches.Load(),
		PrefetchKeys:    c.prefetchKeys.Load(),
		DiskWriteErrors: c.diskWriteErrors.Load(),
		Entries:         int(c.indexed.Load()),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Bytes += sh.bytes
		s.Entries += len(sh.items)
		sh.mu.Unlock()
	}
	if c.remote != nil {
		s.HasRemote = true
		s.Remote = c.remote.Stats()
	}
	return s
}

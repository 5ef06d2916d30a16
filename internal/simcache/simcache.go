// Package simcache is a content-addressed cache of replay-segment simulation
// results — the "pay the full simulation once, reuse it everywhere"
// mechanism behind the experiment harness. Keys are gpu.SegmentKey content
// addresses (engine fingerprint + gpu.Config + spec sequence, see
// gpu.KeyForSegmentEngineAppend), so a hit is bit-identical to a fresh simulation by
// construction: the engine is deterministic in exactly the hashed inputs,
// and the determinism contract from the parallel/arena work is what makes
// the substitution safe.
//
// The cache has up to three tiers, consulted nearest first. A sharded
// in-memory LRU bounded by bytes serves repeated segments within a process
// (ε-sweep points, repetitions, DSE variants sharing ground truth). An
// optional on-disk store (Options.Dir) persists entries across processes
// in one append-only pack of versioned, checksummed records, read once per
// Cache into an immutable index that serves pack hits without a lock; a
// record is discarded — never trusted — on any mismatch, so a corrupt or
// torn record degrades to a simulation, not an error. An
// optional remote tier (Options.Remote, implemented by
// internal/cachenet's client) shares one ground-truth pool across machines
// and concurrent runs: lookups miss through memory and disk to the remote
// server, fresh computations are written back to every tier, and the same
// discard-never-trust verification applies to every byte that crosses the
// wire. The memory tier doubles as the remote client's local hot tier —
// once an entry has been fetched (or batch-prefetched, see Prefetch) a
// repeat hit never touches the network.
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
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stemroot/internal/gpu"
)

// DefaultMaxBytes bounds the in-memory tier when Options.MaxBytes is zero.
// Segment entries are small (32 bytes per kernel result plus bookkeeping),
// so 256 MiB holds on the order of 10^5..10^6 segments — far beyond any
// current experiment run — while staying irrelevant next to the simulator's
// own working set.
const DefaultMaxBytes = 256 << 20

// shardCount is fixed: a power of two so the key's leading byte selects a
// shard with a mask. 16 shards keep lock contention negligible at the
// worker counts the pipeline uses.
const shardCount = 16

// Remote is the third cache tier: a shared result pool behind the local
// memory and disk tiers, typically a cachenet client talking to a
// cmd/cacheserver instance shared by a fleet of experiment runs. Every
// method is best-effort and must never block a simulation on a sick server:
// a timeout, connection failure, or verification mismatch is a miss (or a
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
	// MaxBytes bounds the in-memory tier (approximate, counting payload plus
	// fixed per-entry overhead). 0 selects DefaultMaxBytes; negative
	// disables the in-memory bound (unbounded).
	MaxBytes int64
	// Dir enables the on-disk tier in this directory (created if missing):
	// one pack file, read at the first lookup. Empty disables it.
	Dir string
	// Remote attaches a shared remote tier behind memory and disk (see
	// Remote; internal/cachenet's Client is the canonical implementation).
	// nil disables it.
	Remote Remote
}

// Stats is a point-in-time snapshot of the cache counters across all tiers.
type Stats struct {
	// Hits counts GetOrCompute calls served without simulating: memory,
	// disk, and remote hits, and singleflight followers that shared a
	// leader's result.
	Hits uint64
	// MemHits / DiskHits / RemoteHits / Shared break Hits down by source.
	// RemoteHits also counts entries a Prefetch batch pulled into the
	// memory tier (they surface as MemHits at access time).
	MemHits, DiskHits, RemoteHits, Shared uint64
	// Misses counts calls that ran the compute function.
	Misses uint64
	// Evictions counts entries the byte bound let go of: pack index rows
	// and LRU entries alike.
	Evictions uint64
	// Bytes and Entries describe the current in-memory tier: the pack
	// index's resident rows and the LRU.
	Bytes   int64
	Entries int
	// DiskErrors counts damaged runs of the pack — torn, bit-rotted or
	// foreign bytes, each skipped to the next record that verifies — and
	// records that failed to verify when read back from their offset.
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

// Cache implements gpu.SegmentCache (and gpu.BatchPrefetcher when a remote
// tier is attached). See the package documentation.
type Cache struct {
	shards   [shardCount]shard
	maxShard int64 // per-shard byte bound; <0 = unbounded
	dir      string
	remote   Remote

	// packPath is the NUL-terminated path of dir's pack; packOnce loads it
	// at the first lookup into index, read-only from then on; pack is the
	// append handle, opened at the first write and guarded, with the
	// offsets it reports, by packMu. A Cache has no Close: the handle lives
	// as long as the Cache, and the os.File's finalizer closes it. Every
	// record is synced before writeDisk returns, so closing adds nothing a
	// reader needs.
	packPath []byte
	packOnce sync.Once
	index    packIndex
	packMu   sync.Mutex
	pack     *os.File

	hits, memHits, diskHits, shared atomic.Uint64
	misses, evictions, diskErrors   atomic.Uint64
	diskWriteErrors                 atomic.Uint64
	remoteHits                      atomic.Uint64
	prefetches, prefetchKeys        atomic.Uint64

	// prefetchMissed remembers keys the last Prefetch batches could not
	// resolve remotely, so the per-segment miss path skips a pointless
	// second round trip for them (gpu.RunSegmentedEngine prefetches exactly
	// the keys it is about to request). Entries are consumed — removed — by
	// the first load that sees them, so the set stays bounded by the
	// in-flight workloads' segment counts.
	prefetchMissed sync.Map // gpu.SegmentKey -> struct{}
}

// entry is one segment result this process computed, fetched or read back
// from the pack, linked into its shard's LRU ring — and, before that, the
// singleflight record of its load: the leader puts it in the table with
// loading set, followers wait on done and read results and err, and it then
// joins the ring or, on an error, leaves the table. So a read-back allocates
// the entry and its decoded results and nothing else.
type entry struct {
	key        gpu.SegmentKey
	results    []gpu.KernelResult
	prev, next *entry
	err        error
	done       sync.WaitGroup
	end        int64 // pack offset just past the entry's record; 0 if none
	loading    bool  // guarded by the shard lock
}

// packLoc is where a record the memory tier does not hold sits in the
// pack: it ends at end and carries n results.
type packLoc struct {
	end int64
	n   int
}

// shard is one lock domain: an LRU over its share of the key space, entries
// still loading included in items but not in the ring.
type shard struct {
	mu    sync.Mutex
	items map[gpu.SegmentKey]*entry
	// head is most recently used; tail least. Sentinel-free doubly linked
	// list: head/tail are nil when empty.
	head, tail *entry
	bytes      int64 // the ring's
	// pinned and pinnedN are the bytes and the count of the pack index's
	// rows in this shard's key space that are still resident; they count
	// toward the byte bound and Stats. order is nil until the shard's first
	// releaseRow.
	pinned  int64
	pinnedN int
	order   *rowOrder
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
	for i := range c.shards {
		c.shards[i].items = make(map[gpu.SegmentKey]*entry)
	}
	if c.dir != "" {
		if err := ensureDir(c.dir); err != nil {
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

// GetOrCompute implements gpu.SegmentCache.
func (c *Cache) GetOrCompute(key gpu.SegmentKey, compute func() ([]gpu.KernelResult, error)) ([]gpu.KernelResult, error) {
	if c.dir != "" {
		c.packOnce.Do(c.loadPack)
		if i := c.index.find(key); i >= 0 && c.index.resident(i) {
			c.hits.Add(1)
			if c.index.firstUse(i) {
				c.diskHits.Add(1) // its first use: the pack served it
			} else {
				c.memHits.Add(1)
			}
			return c.index.resultsOf(i), nil
		}
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
	sh.items[key] = e
	sh.mu.Unlock()

	// Leader path: disk tier, then remote, then compute. A failed load
	// leaves the table, so it can be retried later.
	results, src, err := c.load(e, compute)

	sh.mu.Lock()
	e.results, e.err, e.loading = results, err, false
	if err == nil {
		c.link(sh, e)
	} else {
		delete(sh.items, key)
	}
	sh.mu.Unlock()
	e.done.Done()

	if err != nil {
		return nil, err
	}
	switch src {
	case srcDisk:
		c.hits.Add(1)
		c.diskHits.Add(1)
	case srcRemote:
		c.hits.Add(1)
		c.remoteHits.Add(1)
	default:
		c.misses.Add(1)
	}
	return results, nil
}

// loadSource says which tier resolved a leader's load.
type loadSource int

const (
	srcCompute loadSource = iota
	srcDisk
	srcRemote
)

// load resolves a miss of e's key tier by tier: the pack records the memory
// tier does not hold (if enabled), then the remote server (if attached), then
// compute, and records in e.end where the entry sits in the pack. A fresh
// computation is written back to every outer tier best-effort, carrying its
// measured simulation time so the server's cost-aware eviction can weight
// the entry by what it saves. Remote hits are also replicated to disk: a
// later run on this machine then survives a dead server with warm local
// state.
func (c *Cache) load(e *entry, compute func() ([]gpu.KernelResult, error)) (results []gpu.KernelResult, src loadSource, err error) {
	key := e.key
	if c.dir != "" {
		var ok bool
		if results, e.end, ok = c.readDisk(key); ok {
			return results, srcDisk, nil
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
				return results, srcRemote, nil
			}
		}
	}
	start := time.Now()
	results, err = compute()
	if err != nil {
		return nil, srcCompute, err
	}
	costNs := time.Since(start).Nanoseconds()
	if c.dir != "" {
		e.end = c.writeDisk(key, results) // best-effort; failures only cost reuse
	}
	if c.remote != nil {
		c.remote.Put(key, results, costNs)
	}
	return results, srcCompute, nil
}

// WantPrefetch implements gpu.BatchPrefetcher: up-front key derivation pays
// off only when a remote tier can turn the keys into one BatchGet round
// trip.
func (c *Cache) WantPrefetch() bool { return c.remote != nil }

// Prefetch implements gpu.BatchPrefetcher: it resolves the announced keys
// against the remote tier in one BatchGet, seeding the in-memory tier with
// every hit so the per-segment lookups that follow stay local. Keys already
// resident in memory are filtered out first and the rest go out once each, in
// key order (keys itself is only read, and not kept); keys the batch could not
// resolve are remembered so the per-segment miss path skips a second round
// trip for them. Purely a performance hint: results of subsequent
// GetOrCompute calls are unchanged.
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
		c.insert(sh, need[i], results, end)
		sh.mu.Unlock()
	}
}

// insert adds a fetched entry unless the key is present or being loaded
// (identical content by construction). Caller holds sh.mu.
func (c *Cache) insert(sh *shard, key gpu.SegmentKey, results []gpu.KernelResult, end int64) {
	if sh.items[key] != nil {
		return
	}
	e := &entry{key: key, results: results, end: end}
	sh.items[key] = e
	c.link(sh, e)
}

// link puts a loaded entry of sh.items at the head of the ring and enforces
// the byte bound: the shard's resident pack rows go first (releaseRow), then
// ring entries from the tail; the newest entry stays, even past the bound. A
// ring entry let go of with a pack record is spilled, to be read back rather
// than recomputed. Caller holds sh.mu.
func (c *Cache) link(sh *shard, e *entry) {
	sh.bytes += entryBytes(len(e.results))
	sh.pushFront(e)
	if c.maxShard < 0 {
		return
	}
	for sh.pinned+sh.bytes > c.maxShard {
		if sh.pinnedN > 0 {
			c.releaseRow(sh, int(e.key[0])&(shardCount-1))
			continue
		}
		victim := sh.tail
		if victim == e {
			return
		}
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

// rowOrder is a shard's resident pack rows at load, by pack position, and
// releaseRow's two cursors into them.
type rowOrder struct {
	rows       []int32
	cold, warm int
}

// releaseRow lets go of one of shard s's resident pack rows, which leaves it
// index-only: the oldest never used, if one is left, else the oldest. That is
// the order in which they would leave the tail of a ring they had joined at
// load, except that a used row goes before every ring entry, where the ring
// would order it by its last use; such a row is read back once and then
// kept in the ring by use. Caller holds sh.mu and has sh.pinnedN > 0.
func (c *Cache) releaseRow(sh *shard, s int) {
	x, o := &c.index, sh.order
	if o == nil {
		o = &rowOrder{rows: make([]int32, 0, sh.pinnedN)}
		for i := range x.rows {
			if x.rows[i].off >= 0 && int(x.rows[i].key[0])&(shardCount-1) == s {
				o.rows = append(o.rows, int32(i))
			}
		}
		slices.SortFunc(o.rows, func(a, b int32) int { return cmp.Compare(x.rows[a].end, x.rows[b].end) })
		sh.order = o
	}
	i := -1
	for ; i < 0 && o.cold < len(o.rows); o.cold++ {
		if j := int(o.rows[o.cold]); !hasBit(x.used, j) {
			i = j
		}
	}
	for ; i < 0 && o.warm < len(o.rows); o.warm++ {
		if j := int(o.rows[o.warm]); !hasBit(x.gone, j) {
			i = j
		}
	}
	setBit(x.gone, i)
	sh.pinned -= entryBytes(x.rows[i].n)
	sh.pinnedN--
	c.evictions.Add(1)
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

// String renders the snapshot as a stable single-line key=value list, the
// format the CLIs print under -cachestats and CI smoke checks parse. The
// remote block is appended only when a remote tier is attached, and a new
// counter goes after the ones before it, so a field parsed by position or
// by name stays where it was.
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
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Bytes += sh.pinned + sh.bytes
		s.Entries += sh.pinnedN + len(sh.items)
		sh.mu.Unlock()
	}
	if c.remote != nil {
		s.HasRemote = true
		s.Remote = c.remote.Stats()
	}
	return s
}

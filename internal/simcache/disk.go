package simcache

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"stemroot/internal/gpu"
)

// Entry wire format (all integers little-endian), shared verbatim by the
// on-disk tier and the cachenet network protocol — one encoder, one
// verifier, one trust model:
//
//	offset  size  field
//	0       4     magic "SRSC"
//	4       4     format version (diskFormatVersion)
//	8       32    segment key (must match the request)
//	40      8     result count n
//	48      32*n  results: Cycles, Instructions, L1HitRate, L2HitRate
//	48+32n  32    SHA-256 over bytes [0, 48+32n)
//
// The key embeds the engine fingerprint (gpu.KeyForSegmentEngineAppend), so
// entries from a different engine version are never asked for; the embedded
// key and trailing checksum reject torn or bit-rotted records and, on the
// network path, corrupted or mismatched frames. Every verification failure is
// a silent miss — the segment is simulated instead — never an error: the disk
// and remote tiers are accelerators, not sources of truth.

const (
	diskMagic         = "SRSC"
	diskFormatVersion = 1
	diskHeaderSize    = 4 + 4 + 32 + 8
	resultWireSize    = 32 // 4 fields x 8 bytes per gpu.KernelResult
)

// MaxEntryBytes rejects absurd result counts before allocating: the largest
// legitimate segment is far below this (segments are a few dozen kernels),
// so anything bigger is corruption. Exported so the cachenet frame decoder
// applies the same bound.
const MaxEntryBytes = 64 << 20

func ensureDir(dir string) error { return os.MkdirAll(dir, 0o755) }

// The disk tier is one append-only pack per cache directory: entries in the
// wire format above, back to back, each self-delimiting by its count and
// self-checking by its checksum. A write appends one record with a single
// O_APPEND write, which POSIX makes land whole and contiguous beside any
// other process's, and syncs it; no lock, no per-writer file. A Cache reads
// the pack once, at its first lookup (loadPack), and keeps what verifies.
// Directories from the one-file-per-entry layout hold no pack: they read as
// empty and the first run refills them.
const packName = "segments.pack"

// recordSize is the length of an entry holding n results.
func recordSize(n int) int { return diskHeaderSize + n*resultWireSize + sha256.Size }

// EncodeEntry serializes results for key in the checksummed entry wire
// format above. It is the single encoder behind both the disk tier and the
// cachenet protocol.
func EncodeEntry(key gpu.SegmentKey, results []gpu.KernelResult) []byte {
	n := len(results)
	buf := make([]byte, recordSize(n))
	copy(buf[0:4], diskMagic)
	binary.LittleEndian.PutUint32(buf[4:8], diskFormatVersion)
	copy(buf[8:40], key[:])
	binary.LittleEndian.PutUint64(buf[40:48], uint64(n))
	off := diskHeaderSize
	for i := range results {
		r := &results[i]
		binary.LittleEndian.PutUint64(buf[off+0:], math.Float64bits(r.Cycles))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(r.Instructions))
		binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(r.L1HitRate))
		binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(r.L2HitRate))
		off += resultWireSize
	}
	sum := sha256.Sum256(buf[:off])
	copy(buf[off:], sum[:])
	return buf
}

// verifyEntry runs every structural and integrity check on an encoded entry
// — magic, version, embedded key, length, checksum — without materializing
// results. It returns the result count on success.
func verifyEntry(key gpu.SegmentKey, buf []byte) (n int, ok bool) {
	if len(buf) < diskHeaderSize+sha256.Size || string(buf[0:4]) != diskMagic ||
		binary.LittleEndian.Uint32(buf[4:8]) != diskFormatVersion || gpu.SegmentKey(buf[8:40]) != key {
		return 0, false
	}
	count := binary.LittleEndian.Uint64(buf[40:48])
	if count > MaxEntryBytes/resultWireSize || len(buf) != recordSize(int(count)) {
		return 0, false
	}
	payloadEnd := len(buf) - sha256.Size
	if sha256.Sum256(buf[:payloadEnd]) != [sha256.Size]byte(buf[payloadEnd:]) {
		return 0, false
	}
	return int(count), true
}

// VerifyEntry reports whether buf is a well-formed, checksummed entry for
// key, without decoding the payload. The cache server applies this on Put so
// a client bug cannot poison the shared pool; readers still re-verify with
// DecodeEntry before trusting anything.
func VerifyEntry(key gpu.SegmentKey, buf []byte) bool {
	_, ok := verifyEntry(key, buf)
	return ok
}

// DecodeEntry verifies and deserializes an encoded entry; ok is false on any
// mismatch (magic, version, key, length, checksum). This is the
// discard-never-trust gate every tier shares: a false return degrades to a
// simulation, never to a wrong result.
func DecodeEntry(key gpu.SegmentKey, buf []byte) (results []gpu.KernelResult, ok bool) {
	n, ok := verifyEntry(key, buf)
	if !ok {
		return nil, false
	}
	return decodeResults(buf, n), true
}

// decodeResults deserializes the n results of an entry verifyEntry accepted.
func decodeResults(buf []byte, n int) []gpu.KernelResult {
	results := make([]gpu.KernelResult, n)
	decodeInto(results, buf)
	return results
}

// decodeInto deserializes the first len(dst) results of an entry
// verifyEntry accepted into dst.
func decodeInto(dst []gpu.KernelResult, buf []byte) {
	off := diskHeaderSize
	for i := range dst {
		dst[i] = gpu.KernelResult{
			Cycles:       math.Float64frombits(binary.LittleEndian.Uint64(buf[off+0:])),
			Instructions: int64(binary.LittleEndian.Uint64(buf[off+8:])),
			L1HitRate:    math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:])),
			L2HitRate:    math.Float64frombits(binary.LittleEndian.Uint64(buf[off+24:])),
		}
		off += resultWireSize
	}
}

// packIndex is the pack as a Cache's first lookup found it, built once by
// loadPack: one row per key, sorted by key for a binary search, and the
// results of the resident rows decoded back to back into one block. A
// shard's rows are resident all or none (buildIndex), and neither rows nor
// block change after the load, so a pack hit reads them without a lock; only
// the first-use bits change, atomically. A row that is not resident is
// index-only: its results stay in the pack and are read back from its
// offset at each use the memory tier does not serve.
type packIndex struct {
	rows    []packRow
	results []gpu.KernelResult
	// used has one bit per row, set at the row's first use: that one is
	// the disk hit, every later one a memory hit.
	used []atomic.Uint64
}

// packRow is one key's first verified record in the pack.
type packRow struct {
	key gpu.SegmentKey
	end int64 // pack offset just past the record
	off int   // of its results in packIndex.results; -1 if index-only
	n   int   // result count
}

// find returns the row of key, or -1.
func (x *packIndex) find(key gpu.SegmentKey) int {
	i, ok := slices.BinarySearchFunc(x.rows, key, func(r packRow, k gpu.SegmentKey) int { return bytes.Compare(r.key[:], k[:]) })
	if !ok {
		return -1
	}
	return i
}

// resident reports whether row i's results are in memory.
func (x *packIndex) resident(i int) bool { return x.rows[i].off >= 0 }

// resultsOf returns row i's resident results, capped so that an append
// cannot reach the next row's.
func (x *packIndex) resultsOf(i int) []gpu.KernelResult {
	r := &x.rows[i]
	return x.results[r.off : r.off+r.n : r.off+r.n]
}

// firstUse reports whether this is row i's first use, marking it used.
func (x *packIndex) firstUse(i int) bool { return !setBit(x.used, i) }

// setBit sets bit i of b and reports whether it was already set.
func setBit(b []atomic.Uint64, i int) bool {
	w, bit := &b[i/64], uint64(1)<<(i%64)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return old&bit != 0
		}
	}
}

// scanBuf is the pack scanner's buffer and the index's scratch — its rows
// in pack order and their decoded results — shared by every Cache: a warm run
// opens a fresh cache per sweep over one directory, and each should pay for
// its index, not for the scratch it is built in. Not a sync.Pool, which
// empties at every other GC and, under the race detector, at random: what a
// warm cell allocates is pinned (TestWarmCellAllocs). Any of the three grown
// past packScanKeep by a huge pack is not kept.
var scanBuf struct {
	sync.Mutex
	b    []byte
	rows []packRow
	res  []gpu.KernelResult
}

const packScanBuf, packScanKeep = 64 << 10, 1 << 20

// loadPack reads the directory's pack, once per Cache, through the raw read
// path, and builds c.index from every record that verifies exactly as
// DecodeEntry would (buildIndex). Anything else — a torn tail, a damaged or
// foreign record — is one damaged run, counted once in DiskErrors; the scan
// resynchronises at the next record that verifies, which can only start with
// the magic. The scan decodes a record while its shard's share of the byte
// bound has room, so a pack far past the bound is not decoded whole. The
// buffer doubles only when full of bytes still to judge, so it stays within
// twice the input (or the largest legal entry) whatever a header claims.
func (c *Cache) loadPack() {
	fd, err := openFile(c.packPath)
	if err != nil {
		return // no pack yet
	}
	defer closeFile(fd)
	scanBuf.Lock()
	defer scanBuf.Unlock()
	buf, rows, res := scanBuf.b, scanBuf.rows[:0], scanBuf.res[:0]
	if buf == nil {
		buf = make([]byte, packScanBuf)
	}
	var decoded [shardCount]int64 // payload bytes decoded per shard
	var base int64                // pack offset of buf[0]
	lo, hi, eof, resync := 0, 0, false, false
	for lo < hi || !eof {
		size := diskHeaderSize // what it takes to judge the bytes at lo
		if hi-lo >= size {
			if n := binary.LittleEndian.Uint64(buf[lo+40:]); n <= MaxEntryBytes/resultWireSize {
				size = recordSize(int(n))
			}
		}
		if !eof && hi-lo < size {
			if lo > 0 {
				hi, base, lo = copy(buf, buf[lo:hi]), base+int64(lo), 0
			}
			if hi == len(buf) {
				buf = append(buf, make([]byte, len(buf))...)
			}
			n, _ := preadFile(fd, buf[hi:], base+int64(hi))
			hi, eof = hi+max(n, 0), n <= 0
			continue
		}
		if rec := buf[lo:min(lo+size, hi)]; len(rec) == size && size > diskHeaderSize {
			key := gpu.SegmentKey(rec[8:40])
			if n, ok := verifyEntry(key, rec); ok {
				row := packRow{key: key, end: base + int64(lo+size), off: -1, n: n}
				if sh := key[0] & (shardCount - 1); c.maxShard < 0 || decoded[sh]+entryBytes(n) <= c.maxShard {
					decoded[sh] += entryBytes(n)
					row.off = len(res)
					res = slices.Grow(res, n)[:row.off+n]
					decodeInto(res[row.off:], rec)
				}
				rows = append(rows, row)
				lo, resync = lo+size, false
				continue
			}
		}
		if !resync {
			c.diskErrors.Add(1)
			resync = true
		}
		if i := bytes.Index(buf[lo+1:hi], []byte(diskMagic)); i >= 0 {
			lo += 1 + i
		} else {
			lo = max(lo+1, hi-len(diskMagic)+1) // a magic may straddle the next read
		}
	}
	c.buildIndex(fd, rows, res, buf)
	if len(buf) <= packScanKeep {
		scanBuf.b = buf
	}
	if cap(rows)*int(unsafe.Sizeof(packRow{})) <= packScanKeep {
		scanBuf.rows = rows
	}
	if cap(res)*resultWireSize <= packScanKeep {
		scanBuf.res = res
	}
}

// buildIndex makes c.index of the scanned rows, whose results the scan
// decoded into res where it had room. Of two records of a key the first
// wins; a later one, from two processes that computed it at once, is
// identical by construction and takes no room. A shard's rows are then
// resident all or none: all when its distinct records fit in its share of
// the byte bound, none otherwise, so resident rows never leave and the ring
// has what they leave of the share. A resident row's results are copied out
// of res into one exactly sized block, or read back through fd and buf when
// the scan, having counted a duplicate, did not decode them. The index is
// its rows, its block and its first-use bits — three objects whatever the
// record count. rows is reordered.
func (c *Cache) buildIndex(fd readHandle, rows []packRow, res []gpu.KernelResult, buf []byte) {
	if len(rows) == 0 {
		return
	}
	slices.SortFunc(rows, func(a, b packRow) int { return cmp.Or(bytes.Compare(a.key[:], b.key[:]), cmp.Compare(a.end, b.end)) })
	rows = slices.CompactFunc(rows, func(a, b packRow) bool { return a.key == b.key })
	var pinned [shardCount]int64
	var pinnedN, results [shardCount]int
	for i := range rows {
		sh := rows[i].key[0] & (shardCount - 1)
		pinned[sh] += entryBytes(rows[i].n)
		pinnedN[sh]++
		results[sh] += rows[i].n
	}
	var fits [shardCount]bool
	total := 0
	for sh := range fits {
		if fits[sh] = c.maxShard < 0 || pinned[sh] <= c.maxShard; fits[sh] {
			total += results[sh]
		} else {
			pinned[sh], pinnedN[sh] = 0, 0
		}
	}
	x := &c.index
	*x = packIndex{results: make([]gpu.KernelResult, total), used: make([]atomic.Uint64, (len(rows)+63)/64)}
	off := 0
	for i := range rows {
		r := &rows[i]
		sh := r.key[0] & (shardCount - 1)
		switch {
		case !fits[sh]:
			r.off = -1
			continue
		case r.off >= 0:
			copy(x.results[off:], res[r.off:r.off+r.n])
		default:
			rec := readRecord(fd, r.end, r.n, buf)
			if m, ok := verifyEntry(r.key, rec); !ok || m != r.n {
				c.diskErrors.Add(1) // changed under us: read back, or computed, at its use
				pinned[sh], pinnedN[sh] = pinned[sh]-entryBytes(r.n), pinnedN[sh]-1
				continue
			}
			decodeInto(x.results[off:off+r.n], rec)
		}
		r.off, off = off, off+r.n
	}
	x.rows = slices.Clone(rows)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.pinned, sh.pinnedN = pinned[i], pinnedN[i]
		sh.mu.Unlock()
	}
}

// readRecord reads the record of n results that ends at pack offset end into
// buf, reallocated if it is shorter, and returns what it read; the caller
// verifies it.
func readRecord(fd readHandle, end int64, n int, buf []byte) []byte {
	size := recordSize(n)
	if size > cap(buf) {
		buf = make([]byte, size)
	}
	got, _ := preadFile(fd, buf[:size], end-int64(size))
	return buf[:max(got, 0)]
}

// diskReadBuf is the size of readDisk's stack buffer: an entry of up to 125
// results — eight times DefaultSegmentLen — is read without touching the heap.
const diskReadBuf = 4096

// readDisk serves a record the memory tier does not hold — evicted from the
// ring since this cache read or wrote it, or an index-only row of the pack —
// with one positioned read at its recorded offset. It leaves the spill index
// either way: a record that no longer verifies is counted, and the compute
// that follows appends a good one.
func (c *Cache) readDisk(key gpu.SegmentKey) (results []gpu.KernelResult, end int64, ok bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	loc, ok := sh.spilled[key]
	delete(sh.spilled, key)
	sh.mu.Unlock()
	if !ok {
		i := c.index.find(key)
		if i < 0 {
			return nil, 0, false
		}
		loc = packLoc{c.index.rows[i].end, c.index.rows[i].n}
	}
	fd, err := openFile(c.packPath)
	if err != nil {
		return nil, 0, false
	}
	defer closeFile(fd)
	var stack [diskReadBuf]byte
	if results, ok = DecodeEntry(key, readRecord(fd, loc.end, loc.n, stack[:])); !ok {
		c.diskErrors.Add(1)
	}
	return results, loc.end, ok
}

// writeDisk appends key's record to the pack and returns the offset just
// past it, or 0 when it could not be stored. The pack is opened on the
// first write and kept; the offset is read back under the lock that orders
// this Cache's own appends. The Sync makes the record durable before the
// call returns; a crash before it can only leave a torn tail, which readers
// skip. The tier is best-effort: a failure is only counted, in
// Stats.DiskWriteErrors, so a full or read-only directory shows in
// -cachestats instead of turning the tier off unseen.
func (c *Cache) writeDisk(key gpu.SegmentKey, results []gpu.KernelResult) int64 {
	rec := EncodeEntry(key, results)
	c.packMu.Lock()
	if c.pack == nil { // a failed open leaves nil, on which every call fails
		c.pack, _ = os.OpenFile(string(c.packPath[:len(c.packPath)-1]), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	}
	f := c.pack
	_, err := f.Write(rec)
	end, serr := f.Seek(0, io.SeekCurrent)
	c.packMu.Unlock()
	if cmp.Or(err, serr, f.Sync()) != nil {
		c.diskWriteErrors.Add(1)
		return 0
	}
	return end
}

package simcache

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"weak"

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
// another engine version's entries are never asked for; the embedded key and
// the checksum reject torn, bit-rotted or misdirected records. A failed check
// is a silent miss, simulated instead, never an error.

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

// The disk tier is one append-only pack per cache directory: entries in the
// wire format above, back to back. A write appends one record with a single
// O_APPEND write, which POSIX makes land whole beside any other process's,
// and syncs it; no lock, no per-writer file. A Cache finds the pack at its
// first lookup (loadPack), indexed by one scan per version of the file for
// every Cache of the process. A directory in the one-file-per-entry layout
// holds no pack and reads as empty.
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
// key, without decoding it: the cache server's check on Put.
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
	results = make([]gpu.KernelResult, n)
	decodeInto(results, buf)
	return results, true
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

// packMap is a pack's bytes as a load found them — a read-only mapping of
// the file, shared by every Cache of the process, or one Cache's heap copy —
// and the index one scan of them builds, once: one row per key, sorted by
// key, and the damaged runs the scan counted. Only its builder writes it.
type packMap struct {
	data    []byte
	rows    []packRow
	damaged uint64
	once    sync.Once
}

// packRow is where one key's first verified record sits in the pack.
type packRow struct {
	key gpu.SegmentKey
	packLoc
}

// find returns the row of key, or -1; a nil packMap, no pack, has none.
func (m *packMap) find(key gpu.SegmentKey) int {
	if m == nil {
		return -1
	}
	i, ok := slices.BinarySearchFunc(m.rows, key, func(r packRow, k gpu.SegmentKey) int { return bytes.Compare(r.key[:], k[:]) })
	if !ok {
		return -1
	}
	return i
}

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

// packMaps holds, weakly, one mapping per version of each pack file
// (fileID), not per Cache: a page counts toward the resident set once per
// mapping that touched it, and a warm sweep leaves hundreds of Caches to the
// collector. A grown or rewritten pack gets a mapping of its own; Caches
// over an earlier one keep theirs. A mapping's cleanup unmaps it.
var packMaps = struct {
	sync.Mutex
	m map[fileID]weak.Pointer[packMap]
}{m: make(map[fileID]weak.Pointer[packMap])}

// mapPackFile is mapFile; a test makes it fail, to take the heap-copy path
// of the platforms that map nothing.
var mapPackFile = mapFile

// mapPack returns the mapping of the file version id, made now if no Cache
// holds one; nil when fd cannot be mapped.
func mapPack(fd readHandle, id fileID, size int64) *packMap {
	packMaps.Lock()
	defer packMaps.Unlock()
	if m := packMaps.m[id].Value(); m != nil {
		return m
	}
	data, err := mapPackFile(fd, size)
	if err != nil {
		return nil
	}
	m := &packMap{data: data}
	packMaps.m[id] = weak.Make(m)
	runtime.AddCleanup(m, func(id fileID) {
		packMaps.Lock()
		if packMaps.m[id].Value() == nil { // else a later mapping of id
			delete(packMaps.m, id)
		}
		packMaps.Unlock()
		unmapFile(data)
	}, id)
	return m
}

// onFault, deferred as onFault(&faulted, debug.SetPanicOnFault(true)),
// restores the setting and turns a memory fault — a mapped page past the end
// of a file truncated since — into *faulted. Any other panic goes on.
func onFault(faulted *bool, old bool) {
	debug.SetPanicOnFault(old)
	if r := recover(); r != nil {
		if _, fault := r.(interface{ Addr() uintptr }); !fault {
			panic(r)
		}
		*faulted = true
	}
}

// loadPack points c.index at the pack as it is now: the shared mapping of
// this version of the file, indexed by the first Cache to need it, or a heap
// copy where it cannot be mapped. The Cache adds the scan's damaged runs to
// its own DiskErrors and allocates only its bits, whatever the record count.
func (c *Cache) loadPack() {
	fd, err := openFile(c.packPath)
	if err != nil {
		return // no pack yet
	}
	defer closeFile(fd)
	id, size, err := statFile(fd)
	if err != nil || size <= 0 || size > math.MaxInt {
		return
	}
	m := mapPack(fd, id, size)
	if m == nil {
		data := make([]byte, size)
		n, _ := preadFile(fd, data, 0)
		m = &packMap{data: data[:max(n, 0)]}
	}
	m.once.Do(m.build)
	c.index = m
	c.diskErrors.Add(m.damaged)
	bits := make([]atomic.Uint64, 2*((len(m.rows)+63)/64))
	c.used, c.bad = bits[:len(bits)/2], bits[len(bits)/2:]
	c.indexed.Store(int64(len(m.rows)))
}

// build indexes m.data. Of two records of a key the first wins; the second,
// from two processes that computed it at once, is the same by construction.
func (m *packMap) build() {
	if m.scan() {
		m.damaged++ // the file was cut short under the scan
	}
	slices.SortFunc(m.rows, func(a, b packRow) int { return cmp.Or(bytes.Compare(a.key[:], b.key[:]), cmp.Compare(a.end, b.end)) })
	m.rows = slices.CompactFunc(m.rows, func(a, b packRow) bool { return a.key == b.key })
}

// scan fills m.rows, in pack order, with every record that verifies as
// DecodeEntry would. Anything else — a torn tail, a damaged or foreign
// record — is one damaged run, counted once in m.damaged; the scan resumes
// at the next record that verifies, which starts with the magic. It reports
// a fault, which ends it. Counting magics sizes the rows: exactly for a clean
// pack, and never past one per smallest record.
func (m *packMap) scan() (faulted bool) {
	defer onFault(&faulted, debug.SetPanicOnFault(true))
	data := m.data
	m.rows = make([]packRow, 0, min(bytes.Count(data, []byte(diskMagic)), len(data)/recordSize(0)))
	resync := false
	for lo := 0; lo < len(data); {
		if rest := data[lo:]; len(rest) >= diskHeaderSize {
			if n := binary.LittleEndian.Uint64(rest[40:]); n <= MaxEntryBytes/resultWireSize && recordSize(int(n)) <= len(rest) {
				size := recordSize(int(n))
				key := gpu.SegmentKey(rest[8:40])
				if _, ok := verifyEntry(key, rest[:size]); ok {
					m.rows = append(m.rows, packRow{key, packLoc{int64(lo + size), int(n)}})
					lo, resync = lo+size, false
					continue
				}
			}
		}
		if !resync {
			m.damaged++
			resync = true
		}
		if i := bytes.Index(data[lo+1:], []byte(diskMagic)); i >= 0 {
			lo += 1 + i
		} else {
			lo = len(data)
		}
	}
	return false
}

// fromPack decodes key's record into dst, or a new slice when dst is nil,
// and counts a disk hit at the row's first use and a memory hit after. The
// record is copied out and verified at every use, since a mapped page may be
// read back from a file changed since the load. A fault or a failed check
// counts one DiskErrors and marks the row bad: its key goes to the ring and
// then to a computation, which appends a good record. A key the index lacks,
// or a dst of another length, is a miss.
func (c *Cache) fromPack(key gpu.SegmentKey, dst []gpu.KernelResult) ([]gpu.KernelResult, bool) {
	if c.dir == "" {
		return nil, false
	}
	c.packOnce.Do(c.loadPack)
	x := c.index
	i := x.find(key)
	if i < 0 || c.bad[i/64].Load()&(1<<(i%64)) != 0 || (dst != nil && len(dst) != x.rows[i].n) {
		return nil, false
	}
	r := &x.rows[i]
	var stack [hitBuf]byte
	rec := recordBuf(stack[:], r.n)
	faulted := copyRecord(rec, x.data[r.end-int64(len(rec)):r.end])
	runtime.KeepAlive(x) // the mapping outlives the copy
	if _, ok := verifyEntry(r.key, rec); faulted || !ok {
		if !setBit(c.bad, i) {
			c.diskErrors.Add(1)
		}
		return nil, false
	}
	if dst == nil {
		dst = make([]gpu.KernelResult, r.n)
	}
	decodeInto(dst, rec)
	c.hits.Add(1)
	if !setBit(c.used, i) {
		c.diskHits.Add(1) // its first use: the pack served it
	} else {
		c.memHits.Add(1)
	}
	return dst, true
}

// copyRecord copies a record out of the pack's bytes and reports a fault.
func copyRecord(dst, src []byte) (faulted bool) {
	defer onFault(&faulted, debug.SetPanicOnFault(true))
	copy(dst, src)
	return false
}

// DecodeInto implements gpu.SegmentDecoder with the pack index (fromPack).
func (c *Cache) DecodeInto(key gpu.SegmentKey, dst []gpu.KernelResult) bool {
	if dst == nil {
		return false // fromPack would decode into a slice of its own
	}
	_, ok := c.fromPack(key, dst)
	return ok
}

// diskReadBuf is the stack buffer a record is read back into: one of up to
// 125 results, eight times DefaultSegmentLen, stays off the heap. A hit
// copies its record into hitBuf, one segment of DefaultSegmentLen, the
// length the pipeline runs: zeroing 4 KiB at every hit cost more than
// verifying the record.
const (
	diskReadBuf = 4096
	hitBuf      = diskHeaderSize + gpu.DefaultSegmentLen*resultWireSize + sha256.Size
)

// readDisk reads back a record the ring let go of, with one positioned read
// at its offset, and drops it from the spill index: a record that no longer
// verifies is counted, and the compute that follows appends a good one.
func (c *Cache) readDisk(key gpu.SegmentKey) (results []gpu.KernelResult, end int64, ok bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	loc, ok := sh.spilled[key]
	delete(sh.spilled, key)
	sh.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	fd, err := openFile(c.packPath)
	if err != nil {
		return nil, 0, false
	}
	defer closeFile(fd)
	var stack [diskReadBuf]byte
	rec := recordBuf(stack[:], loc.n)
	got, _ := preadFile(fd, rec, loc.end-int64(len(rec)))
	if results, ok = DecodeEntry(key, rec[:max(got, 0)]); !ok {
		c.diskErrors.Add(1)
	}
	return results, loc.end, ok
}

// recordBuf returns buf cut to a record of n results, or a new slice if short.
func recordBuf(buf []byte, n int) []byte {
	if size := recordSize(n); size <= len(buf) {
		return buf[:size]
	}
	return make([]byte, recordSize(n))
}

// writeDisk appends key's record to the pack, opened at the first write and
// kept, and returns the offset just past it, read back under the lock that
// orders this Cache's appends; 0 when it could not be stored. The Sync makes
// the record durable before the call returns (a crash can only leave a torn
// tail, which readers skip). A failure is only counted, in
// Stats.DiskWriteErrors, so a full or read-only directory shows in
// -cachestats.
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

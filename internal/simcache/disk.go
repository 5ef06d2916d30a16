package simcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"

	"stemroot/internal/gpu"
)

// Entry wire format (all integers little-endian), shared verbatim by the
// on-disk tier and the cachenet network protocol — one encoder, one
// verifier, one trust model:
//
//	offset  size  field
//	0       4     magic "SRSC"
//	4       4     format version (diskFormatVersion)
//	8       32    segment key (must match the file's name and the request)
//	40      8     result count n
//	48      32*n  results: Cycles, Instructions, L1HitRate, L2HitRate
//	48+32n  32    SHA-256 over bytes [0, 48+32n)
//
// The key embeds the engine fingerprint (gpu.KeyForSegmentEngineAppend), so entries from
// a different engine version are unreachable by name; the embedded key and
// trailing checksum additionally reject renamed, truncated, or bit-rotted
// files — and, on the network path, corrupted or mismatched frames. Every
// verification failure is a silent miss — the segment is simulated instead —
// never an error: the disk and remote tiers are accelerators, not sources of
// truth.

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

// diskPathBuf is the stack space a lookup builds its path in; a cache
// directory past 190 bytes spills to the heap.
const diskPathBuf = 256

// appendPath appends the NUL-terminated path of key's entry file to dst:
// filepath.Join(dir, name[:2], name[2:]) for name = key.String() — a
// two-level fan-out (first key byte), so huge caches do not degrade into one
// enormous directory — written digit by digit, ready for the open call.
func (c *Cache) appendPath(dst []byte, key gpu.SegmentKey) []byte {
	dst = append(dst, c.prefix...)
	dst = hex.AppendEncode(dst, key[:1])
	dst = append(dst, filepath.Separator)
	dst = hex.AppendEncode(dst, key[1:])
	return append(dst, 0)
}

// diskPath is appendPath as a string, for the calls that take one.
func (c *Cache) diskPath(key gpu.SegmentKey) string {
	var buf [diskPathBuf]byte
	path := c.appendPath(buf[:0], key)
	return string(path[:len(path)-1])
}

// EncodeEntry serializes results for key in the checksummed entry wire
// format above. It is the single encoder behind both the disk tier and the
// cachenet protocol.
func EncodeEntry(key gpu.SegmentKey, results []gpu.KernelResult) []byte {
	n := len(results)
	buf := make([]byte, diskHeaderSize+n*resultWireSize+sha256.Size)
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
	if len(buf) < diskHeaderSize+sha256.Size {
		return 0, false
	}
	if string(buf[0:4]) != diskMagic {
		return 0, false
	}
	if binary.LittleEndian.Uint32(buf[4:8]) != diskFormatVersion {
		return 0, false
	}
	var embedded gpu.SegmentKey
	copy(embedded[:], buf[8:40])
	if embedded != key {
		return 0, false
	}
	count := binary.LittleEndian.Uint64(buf[40:48])
	if count > MaxEntryBytes/resultWireSize {
		return 0, false
	}
	payloadEnd := diskHeaderSize + int(count)*resultWireSize
	if len(buf) != payloadEnd+sha256.Size {
		return 0, false
	}
	sum := sha256.Sum256(buf[:payloadEnd])
	var stored [sha256.Size]byte
	copy(stored[:], buf[payloadEnd:])
	if stored != sum {
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
	results = make([]gpu.KernelResult, n)
	off := diskHeaderSize
	for i := range results {
		results[i] = gpu.KernelResult{
			Cycles:       math.Float64frombits(binary.LittleEndian.Uint64(buf[off+0:])),
			Instructions: int64(binary.LittleEndian.Uint64(buf[off+8:])),
			L1HitRate:    math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:])),
			L2HitRate:    math.Float64frombits(binary.LittleEndian.Uint64(buf[off+24:])),
		}
		off += resultWireSize
	}
	return results, true
}

// diskReadBuf is the size of readDisk's stack buffer: an entry of up to 125
// results — eight times DefaultSegmentLen — is read without touching the heap.
const diskReadBuf = 4096

// claimedSize returns the total length the entry header in buf claims for
// itself, or 0 when the header is incomplete or its count is past what
// verifyEntry accepts. It decides only how far to read; DecodeEntry judges
// the bytes.
func claimedSize(buf []byte) int {
	if len(buf) < diskHeaderSize {
		return 0
	}
	count := binary.LittleEndian.Uint64(buf[40:48])
	if count > MaxEntryBytes/resultWireSize {
		return 0
	}
	return diskHeaderSize + int(count)*resultWireSize + sha256.Size
}

// readEntryFile reads the entry file at path into buf: one open, one read,
// one close for an entry that fits, with no fstat to size it first. A file
// that fills buf is read on into heap buffers that double up to the size its
// own header claims plus one byte: the spare byte makes a file longer than
// its claim come back longer, for DecodeEntry to reject, and a huge or lying
// file costs at most twice its length and never more than a legal entry. ok
// is false when the file cannot be opened or read.
func readEntryFile(path []byte, buf []byte) (data []byte, ok bool) {
	fd, err := openFile(path)
	if err != nil {
		return nil, false
	}
	defer closeFile(fd)
	n := 0
	for {
		m, err := readFile(fd, buf[n:])
		if err != nil {
			return nil, false
		}
		n += m
		want := claimedSize(buf[:n])
		switch {
		case m == 0 || (n >= want && n < len(buf)):
			// End of file; or everything claimed has arrived and the read
			// came back short, which on a regular file is end of file too.
			return buf[:n], true
		case n < len(buf):
			// Short of the claim: read again (end of file if truncated).
		case want < len(buf):
			return buf[:n], true // longer than its claim, or no legal claim
		default:
			size := min(2*len(buf), want+1)
			buf = append(make([]byte, 0, size), buf...)[:size]
		}
	}
}

// readDisk loads a verified entry; any failure (missing file, short read,
// corruption) reports a miss. Corrupt files are removed best-effort so they
// are rewritten with good content on the next compute.
func (c *Cache) readDisk(key gpu.SegmentKey) ([]gpu.KernelResult, bool) {
	var pathBuf [diskPathBuf]byte
	path := c.appendPath(pathBuf[:0], key)
	var stack [diskReadBuf]byte
	buf, ok := readEntryFile(path, stack[:])
	if !ok {
		return nil, false
	}
	results, ok := DecodeEntry(key, buf)
	if !ok {
		c.diskErrors.Add(1)
		os.Remove(string(path[:len(path)-1])) // quarantine-by-deletion; next compute rewrites it
		return nil, false
	}
	return results, true
}

// writeDisk persists an entry atomically and durably: write to a temp file
// in the same directory, fsync it, rename over the final name, then fsync
// the parent directory. Without the fsyncs, a crash shortly after the rename
// could leave the final name pointing at data pages that never reached the
// platter — a torn entry whose detection would rest solely on checksum
// rejection; the fsync ordering guarantees any file visible under the final
// name has its full verified content. All failures are silently dropped —
// the disk tier is best-effort.
func (c *Cache) writeDisk(key gpu.SegmentKey, results []gpu.KernelResult) {
	path := c.diskPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return
	}
	buf := EncodeEntry(key, results)
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return
	}
	// Durable rename: fsync the directory holding the entry so the name →
	// inode link itself survives a crash.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
}

// Package cachenet is a network tier for the content-addressed
// segment-result cache (internal/simcache): a sharded in-memory cache server
// speaking a length-prefixed binary protocol over plain TCP, and a client
// tier that slots in as simcache.Options.Remote — a third cache level behind
// the local in-memory LRU and the disk pack. No command serves or attaches
// it: on one host the disk pack is as fast, and processes share a pack
// through a shared directory. The package stays for the benchmark harness,
// which measures it over a loopback server.
//
// # Wire protocol
//
// A connection opens with an 8-byte handshake (magic "SRCN" + uint32
// version, little-endian); every subsequent message is a frame:
//
//	offset  size  field
//	0       1     opcode
//	1       4     payload length (little-endian uint32)
//	5       n     payload
//
// Requests: Get (32-byte key), BatchGet (uint32 count + keys), Put (key +
// uint64 cost in ns + entry blob), Stats (empty). Responses: Hit (entry
// blob), Miss (empty), Batch (uint32 count + per-key uint32 length + blob,
// zero length = miss), StatsR (JSON). Put has NO response — writes pipeline
// back-to-back on one connection, bounded only by the client's in-flight
// window and TCP flow control.
//
// Entry blobs reuse simcache's checksummed disk format verbatim (magic,
// version, embedded key, payload, SHA-256 — see simcache.EncodeEntry), so
// the discard-never-trust contract extends end-to-end: the server rejects
// malformed Puts, and the client re-verifies every entry it receives —
// embedded key and checksum — before use. Any mismatch, timeout, or
// connection failure is a miss or a dropped write, never an error: a dead
// or lying server degrades the run to local-only caching with bit-identical
// results.
//
// # Performance shape
//
// The client amortizes the network out of the hot path. Lookups batch: the
// segment runner announces every key of a workload up front
// (gpu.BatchPrefetcher → simcache.Cache.Prefetch → Client.BatchGet), one
// round trip instead of one per segment. Writes pipeline: Put enqueues into
// a bounded window drained by one writer goroutine over a dedicated
// connection, overflow drops (best-effort, counted). Request connections
// are pooled and reused, and the simcache memory tier in front acts as the
// local hot tier, so repeat hits never touch the wire. The server mirrors
// simcache's 16-shard locking and evicts cost-aware: entries are weighted
// by their recorded simulation cost, not just size, so the
// expensive-to-recompute ground truth survives byte pressure.
package cachenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Handshake constants. The version covers frame layout and opcode
// semantics; entry blobs carry their own format version (simcache).
const (
	protoMagic   = "SRCN"
	protoVersion = 1
)

// Opcodes. Requests are < 16, responses >= 16.
const (
	opGet      byte = 1
	opBatchGet byte = 2
	opPut      byte = 3
	opStats    byte = 4

	opHit    byte = 16
	opMiss   byte = 17
	opBatch  byte = 18
	opStatsR byte = 19
)

const (
	keySize       = 32
	frameHeader   = 5
	handshakeSize = 8

	// maxFrameBytes bounds any single frame (a batch response carries a
	// whole workload's segment entries; a few hundred MiB of headroom is
	// far beyond any legitimate batch while still rejecting a corrupt
	// length prefix).
	maxFrameBytes = 256 << 20

	// frameStep is the largest payload allocated before its bytes arrive.
	frameStep = 32 << 10

	// maxBatchKeys bounds the key count of one BatchGet request.
	maxBatchKeys = 1 << 20
)

// writeHandshake sends the connection preamble.
func writeHandshake(w io.Writer) error {
	var hs [handshakeSize]byte
	copy(hs[:4], protoMagic)
	binary.LittleEndian.PutUint32(hs[4:8], protoVersion)
	_, err := w.Write(hs[:])
	return err
}

// readHandshake validates the connection preamble.
func readHandshake(r io.Reader) error {
	var hs [handshakeSize]byte
	if _, err := io.ReadFull(r, hs[:]); err != nil {
		return err
	}
	if string(hs[:4]) != protoMagic {
		return fmt.Errorf("cachenet: bad handshake magic %q", hs[:4])
	}
	if v := binary.LittleEndian.Uint32(hs[4:8]); v != protoVersion {
		return fmt.Errorf("cachenet: protocol version %d, want %d", v, protoVersion)
	}
	return nil
}

// writeFrame emits one frame; the payload may be split across chunks (they
// are concatenated on the wire). The caller flushes.
func writeFrame(w *bufio.Writer, op byte, chunks ...[]byte) error {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	if n > maxFrameBytes {
		return fmt.Errorf("cachenet: frame of %d bytes exceeds limit", n)
	}
	var hdr [frameHeader]byte
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := w.Write(c); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, rejecting oversized length prefixes before
// reading the payload. A payload longer than frameStep arrives in steps,
// each allocated only once the one before it has filled, so a peer that
// claims a large frame and then stalls or hangs up costs what it sent, not
// what it claimed.
func readFrame(r *bufio.Reader) (op byte, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:5]))
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("cachenet: frame length %d exceeds limit", n)
	}
	if n <= frameStep {
		payload = make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
		return hdr[0], payload, nil
	}
	var steps [][]byte
	for read := 0; read < n; {
		step := make([]byte, min(n-read, frameStep))
		if _, err := io.ReadFull(r, step); err != nil {
			if err == io.EOF && read > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		steps = append(steps, step)
		read += len(step)
	}
	return hdr[0], bytes.Join(steps, nil), nil
}

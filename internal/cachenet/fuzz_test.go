package cachenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/simcache"
)

// frameBytes is one frame as writeFrame puts it on the wire.
func frameBytes(op byte, chunks ...[]byte) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, op, chunks...); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

// claimedFrame is a frame header claiming n payload bytes followed by only
// the first sent of them.
func claimedFrame(op byte, n uint32, sent int) []byte {
	hdr := []byte{op, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[1:], n)
	return append(hdr, make([]byte, sent)...)
}

// serveRequests is the read side of Server.handle over one connection:
// the handshake, then frames until the first error, with BatchGet and Put
// dispatched to the handlers Server.handle calls.
func serveRequests(s *Server, r *bufio.Reader, w *bufio.Writer) {
	if readHandshake(r) != nil {
		return
	}
	for {
		op, payload, err := readFrame(r)
		if err != nil {
			return
		}
		switch op {
		case opBatchGet:
			if s.handleBatch(w, payload) != nil {
				return
			}
		case opPut:
			s.handlePut(payload)
		}
	}
}

// totalAlloc returns the bytes fn allocates.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameClaimedLengthNotAllocated: a header claiming the largest
// legal frame, ten payload bytes and then EOF cost what arrived, not the
// 256 MiB the header claimed.
func TestReadFrameClaimedLengthNotAllocated(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader(claimedFrame(opPut, maxFrameBytes, 10)))
	var err error
	got := totalAlloc(func() { _, _, err = readFrame(r) })
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if got >= 1<<20 {
		t.Fatalf("truncated frame claiming %d bytes allocated %d", maxFrameBytes, got)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the server's read side as one
// connection would. Whatever the frame headers claim, it never panics, and
// it allocates at most twice the input plus 64 KiB.
func FuzzReadFrame(f *testing.F) {
	var hs bytes.Buffer
	if err := writeHandshake(&hs); err != nil {
		f.Fatal(err)
	}
	key := gpu.SegmentKey{1, 2, 3}
	blob := simcache.EncodeEntry(key, []gpu.KernelResult{{Cycles: 7, Instructions: 3}})
	var cost [8]byte
	binary.LittleEndian.PutUint64(cost[:], 1000)
	batch := binary.LittleEndian.AppendUint32(nil, 2)
	batch = append(append(batch, key[:]...), make([]byte, keySize)...)
	long := bytes.Repeat([]byte{9}, 3*frameStep+17)

	f.Add(hs.Bytes())
	f.Add(append(bytes.Clone(hs.Bytes()), frameBytes(opPut, key[:], cost[:], blob)...))
	f.Add(append(bytes.Clone(hs.Bytes()), append(frameBytes(opPut, key[:], cost[:], blob), frameBytes(opBatchGet, batch)...)...))
	f.Add(append(bytes.Clone(hs.Bytes()), frameBytes(opPut, long)...))
	f.Add(append(bytes.Clone(hs.Bytes()), claimedFrame(opPut, maxFrameBytes, 10)...))
	f.Add(append(bytes.Clone(hs.Bytes()), claimedFrame(opBatchGet, 5*frameStep, 2*frameStep+1)...))
	f.Add(append(bytes.Clone(hs.Bytes()), claimedFrame(opGet, maxFrameBytes+1, 0)...))

	srv := NewServer(ServerOptions{})
	w := bufio.NewWriter(io.Discard)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		got := totalAlloc(func() { serveRequests(srv, r, w) })
		if limit := 2*uint64(len(data)) + 64<<10; got > limit {
			t.Fatalf("%d input bytes allocated %d (limit %d)", len(data), got, limit)
		}
	})
}

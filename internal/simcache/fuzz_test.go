package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"stemroot/internal/gpu"
)

// FuzzDecodeEntry feeds the entry codec — the gate every disk file and every
// network frame passes — arbitrary bytes. Whatever they are, DecodeEntry
// does not panic and allocates nothing it does not return; what it accepts
// is exactly what EncodeEntry writes for the decoded results, so the buffer's
// own length bounds the allocation; and no accepted entry survives a flipped
// byte anywhere.
func FuzzDecodeEntry(f *testing.F) {
	key := testKey(3, 7)
	valid := EncodeEntry(key, testResults(5, 2))
	f.Add(key[:], valid, uint(0), byte(1))
	f.Add(key[:], EncodeEntry(key, nil), uint(40), byte(0x80))
	for _, cut := range []int{0, 4, 8, 40, diskHeaderSize, diskHeaderSize + resultWireSize, len(valid) - 1} {
		f.Add(key[:], valid[:cut], uint(cut), byte(1)) // truncated at every header boundary
	}
	f.Add(key[:], append(bytes.Clone(valid), 0), uint(7), byte(2)) // one trailing byte
	for _, count := range []uint64{
		1 << 63,                          // negative as an int
		1 << 59,                          // count × 32 wraps to 0
		1<<59 + 5,                        // wraps to the true payload length
		MaxEntryBytes/resultWireSize + 1, // first count past the bound
	} {
		lying := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(lying[40:48], count)
		sum := sha256.Sum256(lying[:len(lying)-sha256.Size])
		copy(lying[len(lying)-sha256.Size:], sum[:]) // a correct checksum over the lie
		f.Add(key[:], lying, uint(41), byte(4))
	}

	f.Fuzz(func(t *testing.T, keyBytes, buf []byte, pos uint, flip byte) {
		var key gpu.SegmentKey
		copy(key[:], keyBytes)
		var results []gpu.KernelResult
		var ok bool
		allocs := testing.AllocsPerRun(1, func() { results, ok = DecodeEntry(key, buf) })
		if ok != VerifyEntry(key, buf) {
			t.Fatalf("DecodeEntry accepts (%v) what VerifyEntry judges otherwise", ok)
		}
		if !ok {
			if results != nil || allocs != 0 {
				t.Fatalf("a rejected entry of %d bytes cost %.0f allocations and returned %d results", len(buf), allocs, len(results))
			}
			return
		}
		if allocs > 1 || cap(results) != len(results) || diskHeaderSize+len(results)*resultWireSize+sha256.Size != len(buf) {
			t.Fatalf("%d results (cap %d, %.0f allocations) out of %d bytes", len(results), cap(results), allocs, len(buf))
		}
		if again := EncodeEntry(key, results); !bytes.Equal(again, buf) {
			t.Fatalf("accepted bytes are not what EncodeEntry writes for their results:\n%x\n%x", buf, again)
		}
		if flip == 0 {
			flip = 1
		}
		damaged := bytes.Clone(buf)
		damaged[pos%uint(len(buf))] ^= flip
		if _, ok := DecodeEntry(key, damaged); ok {
			t.Fatalf("entry accepted with byte %d flipped by %#x", pos%uint(len(buf)), flip)
		}
	})
}

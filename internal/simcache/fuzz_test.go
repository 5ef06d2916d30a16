package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
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

// referenceScan is the pack read by definition: at every byte, a record
// that verifies is taken whole (the first of its key is kept), anything
// else is skipped one byte at a time, and each maximal run of skipped bytes
// is one damaged run.
func referenceScan(pack []byte) (kept map[gpu.SegmentKey][]gpu.KernelResult, damaged uint64) {
	kept = map[gpu.SegmentKey][]gpu.KernelResult{}
	skipping := false
	for p := 0; p < len(pack); {
		if len(pack)-p >= diskHeaderSize {
			if n := binary.LittleEndian.Uint64(pack[p+40:]); n <= uint64(len(pack)) {
				if size := recordSize(int(n)); size <= len(pack)-p {
					key := gpu.SegmentKey(pack[p+8 : p+40])
					if results, ok := DecodeEntry(key, pack[p:p+size]); ok {
						if _, dup := kept[key]; !dup {
							kept[key] = results
						}
						p, skipping = p+size, false
						continue
					}
				}
			}
		}
		if !skipping {
			damaged, skipping = damaged+1, true
		}
		p++
	}
	return kept, damaged
}

// FuzzLoadPack hands a cache arbitrary pack bytes. Whatever they are, the
// load does not panic, counts the damaged runs referenceScan counts, and
// serves every record it takes through the public lookup — a disk hit at its
// first use and a memory hit at the second, never a computation; it
// allocates in proportion to the input (the index, and a copy of the pack
// where it cannot be mapped), whatever a header claims.
func FuzzLoadPack(f *testing.F) {
	a := EncodeEntry(testKey(1, 1), testResults(3, 1))
	b := EncodeEntry(testKey(2, 2), testResults(1, 2))
	flipped := bytes.Clone(a)
	flipped[diskHeaderSize+1] ^= 4
	lying := bytes.Clone(b)
	binary.LittleEndian.PutUint64(lying[40:48], MaxEntryBytes/resultWireSize)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, seed := range [][]byte{
		nil, a, cat(a, b), a[:len(a)-1], cat(a, b[:diskHeaderSize]), cat(a, []byte("SRSCSRSC junk"), b),
		cat(flipped, b), cat(lying, a), cat(a, a), []byte("SRSCSRSCSRSCSRSC"), cat(b, lying, b),
		cat(EncodeEntry(testKey(3, 3), nil), b),
		cat(lying, make([]byte, 2*packScanKeep), a), // a legal claim the input cannot back, past any kept buffer
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, pack []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, packName), pack, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(Options{Dir: dir, MaxBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.packOnce.Do(c.loadPack)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*len(pack)+2*packScanBuf+16<<10); grew > bound {
			t.Fatalf("loading %d bytes allocated %d, bound %d", len(pack), grew, bound)
		}
		want, damaged := referenceScan(pack)
		if s := c.Stats(); s.DiskErrors != damaged || s.Entries != len(want) {
			t.Fatalf("load kept %d entries and counted %d damaged runs; the reference keeps %d and counts %d", s.Entries, s.DiskErrors, len(want), damaged)
		}
		fail := func() ([]gpu.KernelResult, error) {
			t.Fatal("computed a record the pack holds")
			return nil, nil
		}
		for use := uint64(1); use <= 2; use++ {
			for key, results := range want {
				if got, err := c.GetOrCompute(key, fail); err != nil || !sameResults(got, results) {
					t.Fatalf("record %x, use %d: served %v (%v), want %v", key[:3], use, got, err, results)
				}
			}
			if s := c.Stats(); s.DiskHits != uint64(len(want)) || s.MemHits != (use-1)*uint64(len(want)) || s.Misses != 0 {
				t.Fatalf("after use %d of %d records: %s", use, len(want), s)
			}
		}
	})
}

//go:build race

package simcache

// raceEnabled: syscall.Pread annotates its buffer for the detector, which moves
// the stack buffer of a spilled record's read to the heap.
const raceEnabled = true

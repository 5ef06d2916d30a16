//go:build race

package simcache

// raceEnabled: syscall.Read annotates its buffer for the detector, which moves
// a disk read's stack buffer to the heap.
const raceEnabled = true

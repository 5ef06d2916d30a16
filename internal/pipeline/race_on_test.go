//go:build race

package pipeline

// raceEnabled: syscall.Read annotates its buffer for the detector, which moves
// a disk read's stack buffer to the heap.
const raceEnabled = true

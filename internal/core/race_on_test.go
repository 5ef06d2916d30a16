//go:build race

package core

// raceEnabled gates allocation-accounting tests that are meaningless under
// the race runtime's memory overhead.
const raceEnabled = true

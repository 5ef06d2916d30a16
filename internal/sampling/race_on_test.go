//go:build race

package sampling

// raceEnabled gates the allocation pins: the race runtime allocates for its
// own shadow state and moves stack buffers to the heap, so a count or a byte
// total that is exact without it reads higher with it.
const raceEnabled = true

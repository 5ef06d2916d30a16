//go:build !race

package simcache

const raceEnabled = false

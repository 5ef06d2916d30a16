//go:build !linux

package simcache

import "os"

// Portable stand-ins for diskread_linux.go's direct system calls; path is
// NUL-terminated (Cache.packPath).

// readHandle is what openFile returns.
type readHandle = *os.File

func openFile(path []byte) (*os.File, error) { return os.Open(string(path[:len(path)-1])) }

func preadFile(f *os.File, p []byte, off int64) (int, error) { return f.ReadAt(p, off) }

func closeFile(f *os.File) { f.Close() }

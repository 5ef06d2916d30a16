//go:build !linux

package simcache

import (
	"errors"
	"os"
)

// Portable stand-ins for diskread_linux.go's direct system calls; path is
// NUL-terminated (Cache.packPath). Nothing is mapped: loadPack reads the
// pack into the heap.

// readHandle is what openFile returns.
type readHandle = *os.File

func openFile(path []byte) (*os.File, error) { return os.Open(string(path[:len(path)-1])) }

func preadFile(f *os.File, p []byte, off int64) (int, error) { return f.ReadAt(p, off) }

func closeFile(f *os.File) { f.Close() }

// fileID would name a mapped file.
type fileID struct{}

func statFile(f *os.File) (id fileID, size int64, err error) {
	fi, err := f.Stat()
	if err == nil {
		size = fi.Size()
	}
	return id, size, err
}

func mapFile(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFile([]byte) {}

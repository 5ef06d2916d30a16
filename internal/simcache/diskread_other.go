//go:build !linux

package simcache

import (
	"io"
	"os"
)

// Portable stand-ins for diskread_linux.go's direct system calls; path is
// NUL-terminated (Cache.appendPath).

func openFile(path []byte) (*os.File, error) { return os.Open(string(path[:len(path)-1])) }

func readFile(f *os.File, p []byte) (int, error) {
	n, err := f.Read(p)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

func closeFile(f *os.File) { f.Close() }

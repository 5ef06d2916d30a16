//go:build !unix

package simcache

import (
	"io"
	"os"
)

// Portable stand-ins for diskread_unix.go's direct system calls.

func openFile(path string) (*os.File, error) { return os.Open(path) }

func readFile(f *os.File, p []byte) (int, error) {
	n, err := f.Read(p)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

func closeFile(f *os.File) { f.Close() }

package simcache

import (
	"syscall"
	"unsafe"
)

// The disk tier's read side talks to the kernel directly: os.Open on a
// regular file is an openat, four fcntls and a refused epoll_ctl (the os
// package tries to make every file pollable), and os.ReadFile adds an fstat
// and a second read to find the end — ten system calls around a 600-byte
// entry. These are openat, read, close. EINTR is retried as the os package
// does.

// atFDCWD is AT_FDCWD (-100), which package syscall keeps to itself: paths
// resolve against the working directory, as open(2) resolves them.
const atFDCWD = ^uintptr(99)

// openFile is syscall.Open(path, O_RDONLY|O_CLOEXEC, 0) on the caller's own
// NUL-terminated bytes (Cache.appendPath): syscall.Open takes a string and
// copies it to the heap to terminate it, once per lookup.
func openFile(path []byte) (int, error) {
	for {
		fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, atFDCWD, uintptr(unsafe.Pointer(&path[0])),
			syscall.O_RDONLY|syscall.O_CLOEXEC|syscall.O_LARGEFILE, 0, 0, 0)
		if errno == 0 {
			return int(fd), nil
		} else if errno != syscall.EINTR {
			return -1, errno
		}
	}
}

func readFile(fd int, p []byte) (n int, err error) {
	for {
		n, err = syscall.Read(fd, p)
		if err != syscall.EINTR {
			return n, err
		}
	}
}

func closeFile(fd int) { syscall.Close(fd) }

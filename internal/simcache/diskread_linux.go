package simcache

import (
	"syscall"
	"unsafe"
)

// The disk tier's read side talks to the kernel directly: os.Open on a
// regular file is an openat, four fcntls and a refused epoll_ctl (the os
// package tries to make every file pollable), and allocates the File it
// returns. These are openat, pread, fstat, mmap and close.

// readHandle is what openFile returns: a file descriptor.
type readHandle = int

// atFDCWD is AT_FDCWD (-100), which package syscall keeps to itself: paths
// resolve against the working directory, as open(2) resolves them.
const atFDCWD = ^uintptr(99)

// openFile is syscall.Open(path, O_RDONLY|O_CLOEXEC, 0) on the caller's own
// NUL-terminated bytes (Cache.packPath): syscall.Open takes a string and
// copies it to the heap to terminate it, once per call. EINTR is retried
// here and in preadFile, as the os package does.
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

func preadFile(fd int, p []byte, off int64) (n int, err error) {
	for {
		n, err = syscall.Pread(fd, p, off)
		if err != syscall.EINTR {
			return n, err
		}
	}
}

func closeFile(fd int) { syscall.Close(fd) }

// fileID names a version of a file: its device and inode (a mapped file
// keeps its inode, even unlinked), size and modification time.
type fileID struct{ dev, ino, size, mtime int64 }

// statFile returns the identity and size of the open file fd.
func statFile(fd int) (fileID, int64, error) {
	var st syscall.Stat_t
	err := syscall.Fstat(fd, &st)
	return fileID{int64(st.Dev), int64(st.Ino), st.Size, st.Mtim.Nano()}, st.Size, err
}

// mapFile maps the first size bytes of fd read-only and shared.
func mapFile(fd int, size int64) ([]byte, error) {
	return syscall.Mmap(fd, 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmapFile(b []byte) { syscall.Munmap(b) }

//go:build unix

package simcache

import "syscall"

// The disk tier's read side talks to the kernel directly: os.Open on a
// regular file is an openat, four fcntls and a refused epoll_ctl (the os
// package tries to make every file pollable), and os.ReadFile adds an fstat
// and a second read to find the end — ten system calls around a 600-byte
// entry. These are openat, read, close. EINTR is retried as the os package
// does.

func openFile(path string) (fd int, err error) {
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			return fd, err
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

//go:build unix

package comm

import (
	"io"
	"net"
	"os"
	"syscall"
)

// watch makes the doorbell of the inbound link c. It parks on a second
// descriptor of c's socket, never on c's own: a RawConn.Read holds its
// descriptor's read lock while it waits, and the workers' Polls of c would
// queue behind it. c.File's copy is registered with the netpoller already
// (net.FileConn, which would register a third, calls Fd on the copy, and that
// turns the socket — one for every copy — blocking for a moment).
//
// The probe peeks: it reads nothing. A peek that finds the socket failed has
// taken the error, though, and the link's next read would see a clean end in
// its place, so wait returns it.
func watch(c *net.TCPConn) (*doorbell, error) {
	f, err := c.File()
	if err != nil {
		return nil, err
	}
	raw, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	var (
		b      [1]byte
		failed error
	)
	// prepareRead forgets any readiness before the probe runs, so an arrival
	// is either seen by the probe or raises a new edge: none is missed. The
	// socket is non-blocking, as all of Go's are, so the peek never waits
	// (AIX has no MSG_DONTWAIT to say so twice).
	probe := func(fd uintptr) bool {
		_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK)
		switch err {
		case syscall.EAGAIN:
			return false // nothing yet: park
		case nil, syscall.EINTR:
			return true // bytes, or the peer's FIN (a zero-byte peek)
		}
		failed = os.NewSyscallError("recvfrom", err)
		return true
	}
	return &doorbell{
		file: f,
		arm:  make(chan struct{}, 1),
		wait: func() (bool, error) {
			failed = nil
			if raw.Read(probe) != nil {
				return false, nil // the copy is closed: Close is under way
			}
			return true, failed
		},
	}, nil
}

// nonblock returns c's read (or write) as a call that never waits: it moves
// the bytes the socket holds (or takes) right now and returns (0, nil) when
// that is none. Go's sockets are non-blocking underneath and wait in the
// netpoller; the raw connection's callback reports "done" whatever the
// system call said, so nothing ever parks. The returned function keeps its
// call state in the closure and so must not run concurrently with itself —
// the connection's mutex sees to that.
func nonblock(c *net.TCPConn, write bool) (func([]byte) (int, error), error) {
	raw, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	name, with, call := "read", raw.Read, syscall.Read
	if write {
		name, with, call = "write", raw.Write, syscall.Write
	}
	var (
		buf  []byte
		n    int
		cerr error
	)
	once := func(fd uintptr) bool {
		n, cerr = call(int(fd), buf)
		return true
	}
	return func(b []byte) (int, error) {
		buf = b
		err := with(once)
		buf = nil
		switch {
		case err != nil: // the connection is closed
			return 0, err
		case cerr == syscall.EAGAIN || cerr == syscall.EINTR:
			return 0, nil
		case cerr != nil:
			return 0, os.NewSyscallError(name, cerr)
		case n == 0 && !write:
			return 0, io.EOF
		}
		return n, nil
	}, nil
}

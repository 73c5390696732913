//go:build unix

package comm

import (
	"io"
	"net"
	"os"
	"syscall"
)

// SetSink makes TCP a Polled transport where the non-blocking socket calls
// exist; elsewhere the method is missing and TCP runs its channel driver.
func (t *TCP) SetSink(sink func(lp int, p Packet)) {
	t.sink = sink
	t.nonblock = nonblock
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

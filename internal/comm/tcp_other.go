//go:build !unix

package comm

import "net"

// Without the non-blocking socket calls there is no polled driver: a TCP with
// a sink keeps a blocking reader per peer, which delivers into the sink (see
// SetSink).
var (
	nonblock func(c *net.TCPConn, write bool) (func([]byte) (int, error), error)
	watch    func(c *net.TCPConn) (*doorbell, error)
)

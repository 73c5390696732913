package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gowarp/internal/stats"
)

// TCP is the multi-process Transport: each rank is one OS process hosting a
// contiguous block of LPs (see BlockRanks), connected to every other rank by
// a pair of simplex TCP connections — one this rank dialed (its send side)
// and one it accepted (its receive side). Packets travel as wire frames (see
// wire.go); local destinations never touch a socket.
//
// The join handshake (Start) has every rank listen on its own address, dial
// every peer with retry until DialTimeout, and exchange hello records that
// pin the wire version and topology (LP count, rank count). Start returns
// only when both the dial side and the accept side have one validated
// connection per peer, so no frame can arrive before the topology is agreed.
//
// Each connection has one buffer and one piece of code that fills or empties
// it: Send appends frames to the peer's out-buffer (tcpSendConn), and one
// parser, making every check a frame gets, turns what was read into the
// peer's in-buffer (tcpRecvConn) back into packets, which it hands to the
// sink SetSink installed or, without one, to the per-LP channels Recv
// returns. Two drivers move the bytes between those buffers and the sockets:
//
//   - The polled driver is what SetSink selects where the non-blocking socket
//     calls exist (Unix), and so what the Time Warp kernel runs on: from then
//     on the kernel's own workers do the socket work. Poll reads whatever
//     each inbound socket holds without waiting and delivers the frames to
//     the sink, Flush writes whatever each outbound socket takes without
//     waiting, and what a socket refuses stays buffered for the next Flush.
//     Every write is timed, and a Flush that is not forced leaves a link
//     alone whose last write was under wireBudget times that cost ago, so
//     that the frames of several rounds share a system call; every Poll reads
//     (Transport has the why). No goroutine of the transport reads: Go polls
//     the network only from an idle P or from sysmon's 10 ms tick, and
//     workers that never block leave no P idle, so a reader goroutine parked
//     in the netpoller sees a frame milliseconds after it arrived — and a
//     worker blocked in a write while its peer is blocked in a write to it
//     would be a deadlock, since each is also the other's only reader. Hence
//     the rule: a worker never blocks on a socket. What the transport does
//     start is one doorbell per inbound link (see Arm), for the moments when
//     that reasoning turns over: a worker about to wait leaves its P idle,
//     and an idle P is where the netpoller is consulted at once. The doorbell
//     parks there until the link is readable, calls the kernel's ring
//     function and parks again when asked; it reads nothing, so the frames
//     still reach the sink only through a Poll. Without it an idle rank would
//     notice a frame only at its next timer, and on Linux Go rounds any timer
//     under a millisecond up to one when every P is idle.
//   - The reader driver is everything else: a transport nobody called
//     SetSink on (benchmark/layers.go's, the one caller that reads the
//     channels), and a sink-mode TCP where the non-blocking calls are
//     missing. One reader goroutine per peer blocks in Read and delivers
//     what it parses, and Send writes its frame out before returning; Poll,
//     Flush and Arm then have nothing to do.
//
// Shutdown (Close) flushes what is still buffered, half-closes every outbound
// connection to signal "done sending", drains inbound until every peer has
// done the same or DrainTimeout expires — waking for each arrival on a
// doorbell, or at a reader's end — then tears down the sockets. The
// first transport error observed anywhere (read, write, decode, drain
// timeout) is returned.
type TCP struct {
	cfg    TCPConfig
	peers  Peers
	listen net.Listener

	// lo is the first LP this rank hosts; inboxes[lp-lo] is LP lp's receive
	// channel, made when first asked for (see inbox): a transport with a sink
	// never makes them. sink replaces the channels, and nonblock, where it
	// exists, is what makes a connection's read or write one that never
	// waits: the polled driver (both set by SetSink, before Start).
	lo        int
	inboxes   []chan Packet
	inboxOnce sync.Once
	sink      func(lp int, p Packet)
	nonblock  func(c *net.TCPConn, write bool) (func([]byte) (int, error), error)
	// ring is the kernel's half of the doorbells and watch makes a link's
	// (both set by SetSink; see Arm). armed is set by Arm and taken by the
	// one ring that answers it.
	ring  func()
	watch func(c *net.TCPConn) (*doorbell, error)
	armed atomic.Bool

	out   []*tcpSendConn // indexed by rank; nil for self
	in    []*tcpRecvConn // indexed by rank; nil for self
	rdWG  sync.WaitGroup // the reader driver's readers
	bells sync.WaitGroup // the polled driver's doorbells
	// heard holds a token when an inbound link has news — a doorbell rang, a
	// reader saw its link end — for Close's drain, which waits on it; quit
	// closes when Close stops the doorbells.
	heard chan struct{}
	quit  chan struct{}
	alive bool
	// ending is set once the run is known to be ending here: the final GVT or
	// a stop has passed through, in or out, a link has failed, or Close has
	// begun. Only then is a peer's half-close what it should be (see pump).
	ending atomic.Bool

	// free holds payload slices Send has framed and so finished with —
	// ownership came with the call, and over a socket nobody receives the
	// slice itself — for parse to copy arriving payloads into. Without it
	// every message costs the sending side one buffer and the receiving side
	// another.
	freeMu sync.Mutex
	free   [][]byte

	closeOnce sync.Once
	closeErr  error

	errMu    sync.Mutex
	firstErr error
	stopped  bool
}

// tcpFlushBytes is how much the polled driver lets accumulate toward one peer
// before Send itself tries the socket instead of leaving it to the next
// Flush: it bounds the buffer of a worker that sends a great deal in one
// round, and is large enough that a round's frames normally share one write.
const tcpFlushBytes = 32 << 10

// tcpFreePayloads bounds the payload free list, so a burst of sends pins
// little memory once it has passed. The list is the reservoir of every wire
// buffer this rank circulates: Send fills it a round's sends at a time, the
// hosted LPs' endpoints with what their own lists cannot hold
// (Endpoint.spare), and the parser empties it by as many frames as one read
// finds — several of the peer's rounds, for every LP here at once. It is
// sized to such a burst, not to one round.
const tcpFreePayloads = 1024

// recyclePayload keeps a payload slice the transport has finished with.
func (t *TCP) recyclePayload(b []byte) {
	if cap(b) == 0 {
		return
	}
	t.freeMu.Lock()
	if len(t.free) < tcpFreePayloads {
		t.free = append(t.free, b[:0])
	}
	t.freeMu.Unlock()
}

// takePayload returns an empty recycled payload slice, or nil.
func (t *TCP) takePayload() []byte {
	t.freeMu.Lock()
	defer t.freeMu.Unlock()
	n := len(t.free)
	if n == 0 {
		return nil
	}
	b := t.free[n-1]
	t.free[n-1] = nil
	t.free = t.free[:n-1]
	return b
}

// tcpReadBytes is the initial size of a peer's in-buffer and the least room
// a read is offered; a frame longer than the buffer grows it.
const tcpReadBytes = 64 << 10

// wireBudget is how many times what a write costs a link's frames may wait
// for company: a write system call costs its sender about the same whether it
// carries one small frame or forty, and the peer's next read then finds them
// all. Measured, like poolBatch, not configured (EXPERIMENTS.md, "A rank
// takes its share of the host").
const wireBudget = 8

// tcpSendConn is the send side of the link to one peer rank: the frames not
// yet written, in order. mu serializes the senders and flushers.
type tcpSendConn struct {
	mu   sync.Mutex
	conn *net.TCPConn
	// write moves bytes to the socket: conn.Write under the reader driver
	// (everything, or an error), a non-blocking write under the polled one
	// (what the socket takes now, possibly nothing).
	write func([]byte) (int, error)
	buf   []byte // buf[off:] is still to be written
	off   int
	// down is set once the link is finished with — half-closed by Close, or
	// failed; frames sent after that are dropped.
	down bool
	// wrote is when the last write system call returned and cost what one
	// costs (foldCost over each call timed alone, nanoseconds; 0 until the
	// first): what held decides by. The tally is stats.LinkStats' send half.
	wrote                   time.Time
	cost                    atomic.Int64
	writes, short, bytesOut atomic.Int64
}

// held reports whether what is buffered should wait for a later flush: there
// is less of it than Send itself would write out, and the link's last write
// was under wireBudget times its cost ago. A link nothing was timed on yet,
// or one whose sender's rounds outlast the budget (any run that spins an
// EventCost), is never held. The caller holds mu.
func (sc *tcpSendConn) held() bool {
	pending, cost := len(sc.buf)-sc.off, time.Duration(sc.cost.Load())
	return pending > 0 && pending < tcpFlushBytes && cost > 0 && time.Since(sc.wrote) < wireBudget*cost
}

// flush writes out what is buffered, as far as write takes it. The caller
// holds mu.
func (sc *tcpSendConn) flush() error {
	for sc.off < len(sc.buf) {
		start := time.Now()
		n, err := sc.write(sc.buf[sc.off:])
		sc.wrote = time.Now()
		sc.cost.Store(int64(foldCost(time.Duration(sc.cost.Load()), sc.wrote.Sub(start))))
		sc.writes.Add(1)
		sc.bytesOut.Add(int64(n))
		if n < len(sc.buf)-sc.off {
			sc.short.Add(1)
		}
		sc.off += n
		if err != nil {
			sc.buf, sc.off, sc.down = nil, 0, true
			return err
		}
		if n == 0 {
			// The socket is full. Keep the rest for the next flush, and drop
			// the written prefix once it is the larger part, so a peer that
			// reads slowly costs memory in proportion to the backlog only.
			if sc.off >= len(sc.buf)-sc.off {
				sc.buf = sc.buf[:copy(sc.buf, sc.buf[sc.off:])]
				sc.off = 0
			}
			return nil
		}
	}
	sc.buf, sc.off = sc.buf[:0], 0
	return nil
}

// tcpRecvConn is the receive side of the link from one peer rank: the bytes
// read and not yet parsed. mu admits one reader at a time (the polled
// driver's workers TryLock it), which is also what keeps a peer's frames in
// order.
type tcpRecvConn struct {
	mu   sync.Mutex
	peer int
	conn *net.TCPConn
	// read moves bytes from the socket: conn.Read under the reader driver,
	// a non-blocking read under the polled one ((0, nil): nothing now).
	read func([]byte) (int, error)
	buf  []byte // buf[r:w] is read and unparsed; len(buf) > w always
	r, w int
	// done is set when the peer has half-closed or the link has failed:
	// nothing more will be read.
	done atomic.Bool
	// bell is the link's doorbell under the polled driver; nil under the
	// reader driver and where none could be made.
	bell *doorbell
	// The receive half of stats.LinkStats.
	reads, empty, bytesIn atomic.Int64
}

// doorbell wakes the kernel when bytes reach an inbound link (see Arm). It
// holds a second descriptor of the link's socket (file) and parks on that one
// alone; it reads nothing from the stream.
type doorbell struct {
	file io.Closer
	// wait parks until the socket has bytes, has reached EOF or has failed —
	// then ok, with the failure, which the wait took from the socket — or
	// until file is closed: not ok.
	wait func() (ok bool, failed error)
	arm  chan struct{} // one slot: Arm's request to wait once more
}

// run is a doorbell's goroutine: on each request it waits for the link and
// rings, unless another link's doorbell has answered the Arm already. A link
// that failed while it waited is failed here, as a read would have found it.
func (b *doorbell) run(t *TCP, rc *tcpRecvConn) {
	defer t.bells.Done()
	for {
		select {
		case <-b.arm:
		case <-t.quit:
			return
		}
		if rc.done.Load() {
			continue // the link has delivered its end: never watched again
		}
		ok, failed := b.wait()
		if !ok {
			return
		}
		if failed != nil {
			rc.done.Store(true)
			t.fault(fmt.Errorf("comm: tcp rank %d read from rank %d: %w", t.cfg.Rank, rc.peer, failed))
		}
		if t.armed.CompareAndSwap(true, false) {
			t.ring()
			t.hear()
		}
	}
}

// hear puts a token in heard, for Close's drain.
func (t *TCP) hear() {
	select {
	case t.heard <- struct{}{}:
	default:
	}
}

// Arm implements Transport's doorbell: the next time any live inbound link has
// bytes, its end or a failure to report — at once if one has already — the
// transport calls the ring function SetSink was given, once. A link that has
// delivered its end is never watched again: it would ring at once for ever. A
// transport with no doorbells (none could be made, or the reader driver)
// never rings.
func (t *TCP) Arm() {
	t.armed.Store(true)
	for _, rc := range t.in {
		if rc != nil && rc.bell != nil {
			select {
			case rc.bell.arm <- struct{}{}:
			default: // a request is pending already
			}
		}
	}
}

// pump reads once and delivers every frame that is now complete. It reports
// whether the read filled the room it was given — the socket may hold more.
// The caller holds mu (the reader driver's reader is alone anyway).
func (rc *tcpRecvConn) pump(t *TCP) (more bool) {
	room := rc.buf[rc.w:]
	n, err := rc.read(room)
	rc.reads.Add(1)
	if n == 0 && err == nil {
		rc.empty.Add(1)
		return false // nothing has arrived: most polls end here
	}
	rc.bytesIn.Add(int64(n))
	rc.w += n
	if perr := rc.parse(t); perr != nil {
		rc.done.Store(true)
		t.fault(perr)
		return false
	}
	if err != nil {
		rc.done.Store(true)
		switch {
		case errors.Is(err, io.EOF) && rc.r == rc.w:
			// The peer half-closed between frames: it is done sending. A
			// rank does that when the run is over for it, and then waits
			// DrainTimeout for our half-close in return. A run ends by the
			// final GVT, or by a stop where it fails; if neither has reached
			// this rank by then, the peer did not end well, and an idle rank
			// would wait for it for ever.
			if !t.ending.Load() {
				time.AfterFunc(t.cfg.DrainTimeout, func() {
					if !t.ending.Load() {
						t.fault(fmt.Errorf("comm: tcp rank %d: rank %d closed its link mid-run", t.cfg.Rank, rc.peer))
					}
				})
			}
		case errors.Is(err, io.EOF):
			t.fault(fmt.Errorf("comm: tcp rank %d: torn frame from rank %d: %w", t.cfg.Rank, rc.peer, io.ErrUnexpectedEOF))
		case isClosedConn(err):
			// Close gave up on the drain and tore the socket down.
		default:
			t.fault(fmt.Errorf("comm: tcp rank %d read from rank %d: %w", t.cfg.Rank, rc.peer, err))
		}
		return false
	}
	return n == len(room)
}

// parse is the transport's one frame parser: it delivers every complete frame
// in buf[r:w] and leaves a partial one at the front of a buffer with room for
// the rest of it.
func (rc *tcpRecvConn) parse(t *TCP) error {
	need := len(rc.buf)
	for rc.w-rc.r >= 4 {
		n := binary.LittleEndian.Uint32(rc.buf[rc.r:])
		if n > MaxFrameBody {
			return fmt.Errorf("comm: tcp rank %d: frame from rank %d claims %d bytes: %w",
				t.cfg.Rank, rc.peer, n, ErrFrameTooLarge)
		}
		end := rc.r + 4 + int(n)
		if end > rc.w {
			need = max(need, 4+int(n))
			break
		}
		dst, p, err := DecodeFrame(rc.buf[rc.r+4 : end])
		if err != nil {
			return fmt.Errorf("comm: tcp rank %d: bad frame from rank %d: %w", t.cfg.Rank, rc.peer, err)
		}
		if !t.isLocal(dst) {
			return fmt.Errorf("comm: tcp rank %d: frame from rank %d addressed to non-local LP %d",
				t.cfg.Rank, rc.peer, dst)
		}
		if p.Payload != nil {
			// The packet outlives the buffer it was parsed from (and its
			// receiver recycles the payload as a wire buffer of its own).
			p.Payload = append(t.takePayload(), p.Payload...)
		}
		rc.r = end
		if p.ends() {
			t.ending.Store(true)
		}
		t.deliver(dst, p)
	}
	rest := rc.w - rc.r
	switch {
	case need > len(rc.buf): // a frame longer than the buffer
		grown := make([]byte, need)
		copy(grown, rc.buf[rc.r:rc.w])
		rc.buf = grown
	case rc.r > 0:
		copy(rc.buf, rc.buf[rc.r:rc.w])
	}
	rc.r, rc.w = 0, rest
	return nil
}

// TCPConfig parameterizes a TCP transport. Addrs is the rank-ordered list of
// peer addresses (host:port), one per rank including this one; Rank indexes
// into it.
type TCPConfig struct {
	Rank   int
	Addrs  []string
	NumLPs int
	// Cost is the simulated communication cost model charged on every Send,
	// mirroring the in-process transport (the real socket latency is *extra*).
	Cost CostModel
	// DialTimeout bounds the join handshake (default 10s).
	DialTimeout time.Duration
	// DrainTimeout bounds the Close drain (default 5s).
	DrainTimeout time.Duration
	// Listener, when non-nil, is a pre-bound listener to accept on instead of
	// binding Addrs[Rank] — tests bind 127.0.0.1:0 listeners first so every
	// rank knows real port numbers before any transport starts.
	Listener net.Listener
}

const (
	defaultDialTimeout  = 10 * time.Second
	defaultDrainTimeout = 5 * time.Second
)

// helloMagic opens every connection, immediately followed by the wire
// version and the dialer's rank/numLPs/numRanks as u32s.
var helloMagic = [4]byte{'G', 'W', 'T', 'P'}

const helloLen = 4 + 1 + 4 + 4 + 4

// NewTCP validates cfg and builds the transport; no sockets are touched
// until Start.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	numRanks := len(cfg.Addrs)
	if numRanks < 1 {
		return nil, errors.New("comm: tcp transport needs at least one peer address")
	}
	if cfg.Rank < 0 || cfg.Rank >= numRanks {
		return nil, fmt.Errorf("comm: tcp rank %d out of range [0,%d)", cfg.Rank, numRanks)
	}
	if cfg.NumLPs < numRanks {
		return nil, fmt.Errorf("comm: %d LPs cannot span %d ranks", cfg.NumLPs, numRanks)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = defaultDrainTimeout
	}
	local := BlockRanks(cfg.NumLPs, numRanks, cfg.Rank)
	t := &TCP{
		cfg: cfg,
		peers: Peers{
			NumLPs:    cfg.NumLPs,
			Local:     local,
			Rank:      cfg.Rank,
			NumRanks:  numRanks,
			HostRanks: hostRanks(cfg.Addrs, cfg.Rank),
		},
		lo:    local[0],
		out:   make([]*tcpSendConn, numRanks),
		in:    make([]*tcpRecvConn, numRanks),
		heard: make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	return t, nil
}

// hostRanks counts the ranks in addrs that run on rank's machine, rank itself
// included, going by the address list alone — no lookup, no I/O. Equal host
// parts are one machine and every spelling of loopback (127.0.0.0/8, ::1,
// localhost, no host at all) is the same one. Two names for one machine count
// as two machines and an address that does not parse as its own, so the
// answer errs towards 1: each rank takes the whole machine, as it did before
// anybody counted.
func hostRanks(addrs []string, rank int) int {
	machine := func(addr string) (string, bool) {
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			return "", false
		}
		if ip := net.ParseIP(host); host == "" || host == "localhost" || (ip != nil && ip.IsLoopback()) {
			host = "localhost"
		}
		return host, true
	}
	n := 1
	if own, ok := machine(addrs[rank]); ok {
		for r, addr := range addrs {
			if m, ok := machine(addr); ok && r != rank && m == own {
				n++
			}
		}
	}
	return n
}

// inbox returns locally hosted LP lp's receive channel. The channels are made
// on first use, all at once: they are the larger part of an idle transport's
// memory, and a transport with a sink has no use for them.
func (t *TCP) inbox(lp int) chan Packet {
	t.inboxOnce.Do(func() {
		t.inboxes = make([]chan Packet, len(t.peers.Local))
		for i := range t.inboxes {
			t.inboxes[i] = make(chan Packet, minInboxDepth)
		}
	})
	return t.inboxes[lp-t.lo]
}

// isLocal reports whether this rank hosts lp (its LPs are one contiguous
// block).
func (t *TCP) isLocal(lp int) bool { return lp >= t.lo && lp < t.lo+len(t.peers.Local) }

// deliver hands p to the locally hosted LP lp: into the sink, or into the
// LP's channel when there is none.
func (t *TCP) deliver(lp int, p Packet) {
	if t.sink != nil {
		t.sink(lp, p)
		return
	}
	t.inbox(lp) <- p
}

// Peers implements Transport.
func (t *TCP) Peers() Peers { return t.peers }

// SetSink implements Transport. Where the non-blocking socket calls exist it
// selects the polled driver; elsewhere the readers deliver into the sink.
func (t *TCP) SetSink(sink func(lp int, p Packet), ring func()) {
	t.sink, t.ring = sink, ring
	t.nonblock, t.watch = nonblock, watch
}

// Readers reports whether goroutines of the transport's own read the sockets
// and deliver (the reader driver): they need a P while the kernel's workers
// run, so the workers yield theirs between rounds. It is what SetSink chose,
// and holds from then on.
func (t *TCP) Readers() bool { return t.nonblock == nil }

// Recv implements Transport; lp must be hosted by this rank. A transport
// with a sink delivers nothing to channels and returns a nil one.
func (t *TCP) Recv(lp int) <-chan Packet {
	if !t.isLocal(lp) {
		panic(fmt.Sprintf("comm: Recv(%d) on rank %d, which hosts %v", lp, t.peers.Rank, t.peers.Local))
	}
	if t.sink != nil {
		return nil
	}
	return t.inbox(lp)
}

// Start implements the join handshake contract: listen, dial every peer with
// retry, exchange and validate hellos, then hand the connections to the
// driver — one reader goroutine per inbound connection under the reader
// driver, one doorbell per inbound connection under the polled one. On any
// failure the partially built mesh is torn down.
func (t *TCP) Start() error {
	if t.peers.NumRanks == 1 {
		t.alive = true
		return nil
	}
	deadline := time.Now().Add(t.cfg.DialTimeout)

	ln := t.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", t.cfg.Addrs[t.cfg.Rank])
		if err != nil {
			return fmt.Errorf("comm: tcp rank %d listen: %w", t.cfg.Rank, err)
		}
	}
	t.listen = ln

	type accepted struct {
		rank int
		conn *net.TCPConn
		err  error
	}
	acceptCh := make(chan accepted, t.peers.NumRanks-1)
	go func() {
		for i := 0; i < t.peers.NumRanks-1; i++ {
			c, err := ln.Accept()
			if err != nil {
				acceptCh <- accepted{err: err}
				return
			}
			conn, ok := c.(*net.TCPConn)
			if !ok {
				c.Close()
				acceptCh <- accepted{err: fmt.Errorf("listener %s yields %T, not a TCP connection", ln.Addr(), c)}
				return
			}
			rank, err := t.readHello(conn, deadline)
			if err != nil {
				conn.Close()
				acceptCh <- accepted{err: err}
				return
			}
			acceptCh <- accepted{rank: rank, conn: conn}
		}
	}()

	fail := func(err error) error {
		ln.Close()
		for _, sc := range t.out {
			if sc != nil {
				sc.conn.Close()
			}
		}
		for _, rc := range t.in {
			if rc != nil {
				rc.conn.Close()
			}
		}
		return err
	}

	// Dial every peer's listener; retry while peers are still coming up.
	for r := 0; r < t.peers.NumRanks; r++ {
		if r == t.cfg.Rank {
			continue
		}
		conn, err := dialRetry(t.cfg.Addrs[r], deadline)
		if err != nil {
			return fail(fmt.Errorf("comm: tcp rank %d dial rank %d (%s): %w",
				t.cfg.Rank, r, t.cfg.Addrs[r], err))
		}
		if err := t.writeHello(conn, deadline); err != nil {
			conn.Close()
			return fail(fmt.Errorf("comm: tcp rank %d hello to rank %d: %w", t.cfg.Rank, r, err))
		}
		sc := &tcpSendConn{conn: conn, write: conn.Write}
		if t.nonblock != nil {
			if sc.write, err = t.nonblock(conn, true); err != nil {
				conn.Close()
				return fail(fmt.Errorf("comm: tcp rank %d: link to rank %d: %w", t.cfg.Rank, r, err))
			}
		}
		t.out[r] = sc
	}

	// Collect one validated inbound connection per peer.
	for i := 0; i < t.peers.NumRanks-1; i++ {
		var acc accepted
		select {
		case acc = <-acceptCh:
		case <-time.After(time.Until(deadline)):
			return fail(fmt.Errorf("comm: tcp rank %d join handshake timed out", t.cfg.Rank))
		}
		if acc.err != nil {
			return fail(fmt.Errorf("comm: tcp rank %d accept: %w", t.cfg.Rank, acc.err))
		}
		if acc.rank == t.cfg.Rank || t.in[acc.rank] != nil {
			acc.conn.Close()
			return fail(fmt.Errorf("comm: tcp rank %d: duplicate connection claiming rank %d",
				t.cfg.Rank, acc.rank))
		}
		rc := &tcpRecvConn{peer: acc.rank, conn: acc.conn, read: acc.conn.Read, buf: make([]byte, tcpReadBytes)}
		if t.nonblock != nil {
			var err error
			if rc.read, err = t.nonblock(acc.conn, false); err != nil {
				acc.conn.Close()
				return fail(fmt.Errorf("comm: tcp rank %d: link from rank %d: %w", t.cfg.Rank, acc.rank, err))
			}
		}
		t.in[acc.rank] = rc
	}

	for _, rc := range t.in {
		switch {
		case rc == nil:
		case t.nonblock == nil:
			t.rdWG.Add(1)
			go t.readLoop(rc)
		case t.watch != nil:
			// A link whose socket cannot be copied goes without: the kernel's
			// timers are then all that notices its frames while it idles.
			if rc.bell, _ = t.watch(rc.conn); rc.bell != nil {
				t.bells.Add(1)
				go rc.bell.run(t, rc)
			}
		}
	}
	t.alive = true
	return nil
}

// readLoop is the reader driver's reader for one peer: it blocks in Read and
// delivers until the peer half-closes or the link faults.
func (t *TCP) readLoop(rc *tcpRecvConn) {
	defer t.rdWG.Done()
	for !rc.done.Load() {
		rc.pump(t)
	}
	t.hear()
}

// dialRetry dials addr until it answers or deadline passes, backing off from
// dialBackoff to dialBackoffMax between refusals: a peer whose listener is a
// few milliseconds late costs a few milliseconds, and one that is seconds
// late is not dialed hundreds of times a second.
func dialRetry(addr string, deadline time.Time) (*net.TCPConn, error) {
	var lastErr error
	for backoff := dialBackoff; ; backoff = min(2*backoff, dialBackoffMax) {
		step := time.Until(deadline)
		if step <= 0 {
			if lastErr == nil {
				lastErr = errors.New("deadline exceeded")
			}
			return nil, lastErr
		}
		conn, err := net.DialTimeout("tcp", addr, min(step, 500*time.Millisecond))
		if err == nil {
			return conn.(*net.TCPConn), nil
		}
		lastErr = err
		time.Sleep(min(backoff, time.Until(deadline)))
	}
}

const (
	dialBackoff    = time.Millisecond
	dialBackoffMax = 50 * time.Millisecond
)

func (t *TCP) writeHello(conn net.Conn, deadline time.Time) error {
	var h [helloLen]byte
	copy(h[:4], helloMagic[:])
	h[4] = WireVersion
	binary.LittleEndian.PutUint32(h[5:], uint32(t.cfg.Rank))
	binary.LittleEndian.PutUint32(h[9:], uint32(t.cfg.NumLPs))
	binary.LittleEndian.PutUint32(h[13:], uint32(t.peers.NumRanks))
	conn.SetWriteDeadline(deadline)
	_, err := conn.Write(h[:])
	conn.SetWriteDeadline(time.Time{})
	return err
}

func (t *TCP) readHello(conn net.Conn, deadline time.Time) (rank int, err error) {
	var h [helloLen]byte
	conn.SetReadDeadline(deadline)
	if _, err := io.ReadFull(conn, h[:]); err != nil {
		return 0, fmt.Errorf("hello read: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if h[0] != helloMagic[0] || h[1] != helloMagic[1] || h[2] != helloMagic[2] || h[3] != helloMagic[3] {
		return 0, errors.New("bad hello magic (peer is not a gowarp transport?)")
	}
	if h[4] != WireVersion {
		return 0, fmt.Errorf("%w: peer speaks version %d, this rank %d", ErrFrameVersion, h[4], WireVersion)
	}
	rank = int(binary.LittleEndian.Uint32(h[5:]))
	nLPs := int(binary.LittleEndian.Uint32(h[9:]))
	nRanks := int(binary.LittleEndian.Uint32(h[13:]))
	if nLPs != t.cfg.NumLPs || nRanks != t.peers.NumRanks {
		return 0, fmt.Errorf("topology mismatch: peer rank %d says %d LPs / %d ranks, this rank says %d / %d",
			rank, nLPs, nRanks, t.cfg.NumLPs, t.peers.NumRanks)
	}
	if rank < 0 || rank >= t.peers.NumRanks {
		return 0, fmt.Errorf("peer claims invalid rank %d of %d", rank, t.peers.NumRanks)
	}
	return rank, nil
}

// Send implements Transport. A local destination gets the packet at once,
// in its channel or through the sink; a remote one gets its frame appended to
// the owning rank's out-buffer, which the reader driver writes out before
// returning and the polled driver leaves for the next Flush unless
// tcpFlushBytes have gathered. Either way the sender burns the simulated cost
// on its own goroutine, matching InProc — and gives up p.Payload, as with
// InProc, where the receiver gets that very slice: once framed it goes to the
// free list parse copies arriving payloads into.
func (t *TCP) Send(dst int, p Packet, payloadBytes int) {
	t.cfg.Cost.Charge(payloadBytes)
	if p.ends() {
		t.ending.Store(true)
	}
	if t.isLocal(dst) {
		t.deliver(dst, p)
		return
	}
	r := RankOf(dst, t.cfg.NumLPs, t.peers.NumRanks)
	sc := t.out[r]
	if sc == nil {
		panic(fmt.Sprintf("comm: Send(%d) before Start (rank %d)", dst, t.cfg.Rank))
	}
	sc.mu.Lock()
	if sc.down {
		sc.mu.Unlock()
		return
	}
	buf, err := AppendFrame(sc.buf, dst, p)
	if err != nil {
		sc.mu.Unlock()
		// The kernel sends nothing AppendFrame refuses (it refuses dynamic
		// balancing on distributed transports, and StopPacket cuts reasons)
		// — reaching this is a kernel bug, not a runtime condition to limp
		// through.
		panic(fmt.Sprintf("comm: cannot wire packet to LP %d: %v", dst, err))
	}
	sc.buf = buf
	if t.nonblock == nil || len(sc.buf)-sc.off >= tcpFlushBytes {
		err = sc.flush()
	}
	sc.mu.Unlock()
	t.recyclePayload(p.Payload)
	if err != nil {
		t.writeFault(r, err)
	}
}

func (t *TCP) writeFault(peer int, err error) {
	t.fault(fmt.Errorf("comm: tcp rank %d write to rank %d: %w", t.cfg.Rank, peer, err))
}

// Flush implements Transport: it writes out, without waiting, what
// every peer's socket will take of its out-buffer — of every link when force
// is set, otherwise only of those whose frames have waited long enough for
// company (see held). Under the reader driver Send has written everything.
func (t *TCP) Flush(force bool) {
	for r, sc := range t.out {
		if sc == nil {
			continue
		}
		var err error
		sc.mu.Lock()
		if force || !sc.held() {
			err = sc.flush()
		}
		sc.mu.Unlock()
		if err != nil {
			t.writeFault(r, err)
		}
	}
}

// Links returns the system-call tally of the link to and from each peer rank,
// in rank order. It may be called at any time, also while the run goes on.
func (t *TCP) Links() []stats.LinkStats {
	var links []stats.LinkStats
	for r, sc := range t.out {
		rc := t.in[r]
		if sc == nil || rc == nil {
			continue // this rank itself, or a transport that never started
		}
		links = append(links, stats.LinkStats{
			Peer:        r,
			Reads:       rc.reads.Load(),
			EmptyReads:  rc.empty.Load(),
			BytesIn:     rc.bytesIn.Load(),
			Writes:      sc.writes.Load(),
			ShortWrites: sc.short.Load(),
			BytesOut:    sc.bytesOut.Load(),
			WriteCostNS: sc.cost.Load(),
			Ended:       rc.done.Load(),
		})
	}
	return links
}

// Poll implements Transport: it reads, without waiting, whatever every
// peer's socket holds and delivers the complete frames to the sink. A
// connection another goroutine is polling right now is skipped. Under the
// reader driver the readers deliver, and Poll does nothing.
func (t *TCP) Poll() {
	if t.nonblock == nil {
		return
	}
	for _, rc := range t.in {
		if rc == nil || !rc.mu.TryLock() {
			continue
		}
		for !rc.done.Load() && rc.pump(t) {
		}
		rc.mu.Unlock()
	}
}

// fault records the first transport error and hands every local LP a stop
// that names this rank and the error, so a torn link fails the run instead of
// hanging it.
func (t *TCP) fault(err error) {
	t.errMu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	inject := !t.stopped
	t.stopped = true
	t.errMu.Unlock()
	t.ending.Store(true)
	if !inject {
		return
	}
	for _, lp := range t.peers.Local {
		stop := StopPacket(t.cfg.Rank, err.Error())
		if t.sink != nil {
			t.sink(lp, stop)
			continue
		}
		select {
		case t.inbox(lp) <- stop:
		default: // inbox full — the LP will drain to the stop eventually
		}
	}
}

// drainRetry is how soon Close's drain looks again at what its doorbells
// cannot hear: room in a socket for the rest of an out-buffer, and a link
// without a doorbell. It is the netpoller's own granularity; a shorter wait
// would be rounded up to it.
const drainRetry = time.Millisecond

// Close implements the flush/shutdown contract. Safe to call more than once
// and before Start (a failed or unstarted transport just reports its error).
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		if !t.alive || t.peers.NumRanks == 1 {
			t.closeErr = t.err()
			return
		}
		// Per peer: write out the rest of the out-buffer, half-close — FIN
		// tells the far side that this rank is done sending — and read until
		// the peer's FIN. The reader driver's out-buffers are empty already
		// and its readers drain by themselves; the polled driver takes turns
		// at writing and reading here, because a peer that is closing too may
		// be unable to take the rest of ours before we take some of its own.
		// Between turns the drain waits for news from a link: a doorbell (the
		// polled driver arms them before it reads, so nothing that arrives
		// after the read goes unheard) or a reader's end.
		t.ending.Store(true)
		deadline := time.Now().Add(t.cfg.DrainTimeout)
		for {
			retry := false // something only a timer will notice
			for r, sc := range t.out {
				if sc == nil {
					continue
				}
				sc.mu.Lock()
				if err := sc.flush(); err != nil {
					t.writeFault(r, err)
				} else if !sc.down && len(sc.buf) == 0 {
					sc.conn.CloseWrite()
					sc.down = true
				}
				retry = retry || !sc.down // the socket took part of the rest
				sc.mu.Unlock()
			}
			t.Arm()
			t.Poll()
			open := retry
			for _, rc := range t.in {
				if rc != nil && !rc.done.Load() {
					open = true
					retry = retry || (t.nonblock != nil && rc.bell == nil)
				}
			}
			if !open {
				break
			}
			wait := time.Until(deadline)
			if wait <= 0 {
				t.fault(fmt.Errorf("comm: tcp rank %d: drain timed out after %v", t.cfg.Rank, t.cfg.DrainTimeout))
				break
			}
			if retry {
				wait = min(wait, drainRetry)
			}
			tm := time.NewTimer(wait)
			select {
			case <-t.heard:
			case <-tm.C:
			}
			tm.Stop()
		}
		close(t.quit)
		for _, rc := range t.in {
			if rc != nil && rc.bell != nil {
				rc.bell.file.Close() // a doorbell waiting on the link returns
			}
		}
		t.bells.Wait()
		if t.listen != nil {
			t.listen.Close()
		}
		for _, sc := range t.out {
			if sc != nil {
				sc.conn.Close()
			}
		}
		for _, rc := range t.in {
			if rc != nil {
				rc.conn.Close() // a reader still blocked in Read returns
			}
		}
		t.rdWG.Wait()
		t.closeErr = t.err()
	})
	return t.closeErr
}

func (t *TCP) err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.firstErr
}

func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

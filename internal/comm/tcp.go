package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCP is the multi-process Transport: each rank is one OS process hosting a
// contiguous block of LPs (see BlockRanks), connected to every other rank by
// a pair of simplex TCP connections — one this rank dialed (its send side)
// and one it accepted (its receive side). Packets travel as wire frames (see
// wire.go); local destinations short-circuit through channel inboxes exactly
// like InProc.
//
// The join handshake (Start) has every rank listen on its own address, dial
// every peer with retry until DialTimeout, and exchange hello records that
// pin the wire version and topology (LP count, rank count). Start returns
// only when both the dial side and the accept side have one validated
// connection per peer, so no frame can arrive before the topology is agreed.
//
// Shutdown (Close) half-closes every outbound connection to signal "done
// sending", then drains inbound until every peer has done the same or
// DrainTimeout expires, then tears down the sockets. The first transport
// error observed anywhere (read, write, decode, drain timeout) is returned.
type TCP struct {
	cfg    TCPConfig
	peers  Peers
	listen net.Listener

	inboxes map[int]chan Packet

	out   []*tcpSendConn // indexed by rank; nil for self
	in    []net.Conn     // indexed by rank; nil for self
	rdWG  sync.WaitGroup
	alive bool

	closeOnce sync.Once
	closeErr  error

	errMu    sync.Mutex
	firstErr error
	stopped  bool
}

// tcpSendConn serializes writes to one peer rank.
type tcpSendConn struct {
	mu   sync.Mutex
	conn *net.TCPConn
	buf  []byte
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
			NumLPs:   cfg.NumLPs,
			Local:    local,
			Rank:     cfg.Rank,
			NumRanks: numRanks,
		},
		inboxes: make(map[int]chan Packet, len(local)),
		out:     make([]*tcpSendConn, numRanks),
		in:      make([]net.Conn, numRanks),
	}
	for _, lp := range local {
		t.inboxes[lp] = make(chan Packet, minInboxDepth)
	}
	return t, nil
}

// Peers implements Transport.
func (t *TCP) Peers() Peers { return t.peers }

// Recv implements Transport; lp must be hosted by this rank.
func (t *TCP) Recv(lp int) <-chan Packet {
	ch, ok := t.inboxes[lp]
	if !ok {
		panic(fmt.Sprintf("comm: Recv(%d) on rank %d, which hosts %v", lp, t.peers.Rank, t.peers.Local))
	}
	return ch
}

// Start implements the join handshake contract: listen, dial every peer with
// retry, exchange and validate hellos, then spin up one reader per inbound
// connection. On any failure the partially built mesh is torn down.
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
		conn net.Conn
		err  error
	}
	acceptCh := make(chan accepted, t.peers.NumRanks-1)
	go func() {
		for i := 0; i < t.peers.NumRanks-1; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptCh <- accepted{err: err}
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
		for _, c := range t.in {
			if c != nil {
				c.Close()
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
		t.out[r] = &tcpSendConn{conn: conn}
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
		t.in[acc.rank] = acc.conn
	}

	for r, c := range t.in {
		if c == nil {
			continue
		}
		t.rdWG.Add(1)
		go t.readLoop(r, c)
	}
	t.alive = true
	return nil
}

func dialRetry(addr string, deadline time.Time) (*net.TCPConn, error) {
	var lastErr error
	for {
		step := time.Until(deadline)
		if step <= 0 {
			if lastErr == nil {
				lastErr = errors.New("deadline exceeded")
			}
			return nil, lastErr
		}
		if step > 500*time.Millisecond {
			step = 500 * time.Millisecond
		}
		conn, err := net.DialTimeout("tcp", addr, step)
		if err == nil {
			return conn.(*net.TCPConn), nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
}

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

// Send implements Transport. Local destinations deliver through the channel
// inbox; remote destinations are framed and written to the owning rank's
// connection. Either way the sender burns the simulated cost on its own
// goroutine, matching InProc.
func (t *TCP) Send(dst int, p Packet, payloadBytes int) {
	t.cfg.Cost.Charge(payloadBytes)
	if ch, ok := t.inboxes[dst]; ok {
		ch <- p
		return
	}
	r := RankOf(dst, t.cfg.NumLPs, t.peers.NumRanks)
	sc := t.out[r]
	if sc == nil {
		panic(fmt.Sprintf("comm: Send(%d) before Start (rank %d)", dst, t.cfg.Rank))
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	buf, err := AppendFrame(sc.buf[:0], dst, p)
	if err != nil {
		// Only PktMigrate capsules are unframeable, and the kernel refuses
		// dynamic balancing on distributed transports — reaching this is a
		// kernel bug, not a runtime condition to limp through.
		panic(fmt.Sprintf("comm: cannot wire packet to LP %d: %v", dst, err))
	}
	sc.buf = buf
	if _, werr := sc.conn.Write(buf); werr != nil {
		t.fault(fmt.Errorf("comm: tcp rank %d write to rank %d: %w", t.cfg.Rank, r, werr))
	}
}

// readLoop decodes frames from one peer until the peer half-closes (clean
// EOF) or the link faults.
func (t *TCP) readLoop(peer int, conn net.Conn) {
	defer t.rdWG.Done()
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			if !errors.Is(err, io.EOF) && !isClosedConn(err) {
				t.fault(fmt.Errorf("comm: tcp rank %d read from rank %d: %w", t.cfg.Rank, peer, err))
			}
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > MaxFrameBody {
			t.fault(fmt.Errorf("comm: tcp rank %d: frame from rank %d claims %d bytes: %w",
				t.cfg.Rank, peer, n, ErrFrameTooLarge))
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(conn, body); err != nil {
			t.fault(fmt.Errorf("comm: tcp rank %d: torn frame from rank %d: %w", t.cfg.Rank, peer, err))
			return
		}
		dst, p, err := DecodeFrame(body)
		if err != nil {
			t.fault(fmt.Errorf("comm: tcp rank %d: bad frame from rank %d: %w", t.cfg.Rank, peer, err))
			return
		}
		ch, ok := t.inboxes[dst]
		if !ok {
			t.fault(fmt.Errorf("comm: tcp rank %d: frame from rank %d addressed to non-local LP %d",
				t.cfg.Rank, peer, dst))
			return
		}
		ch <- p
	}
}

// fault records the first transport error and wakes every local LP with a
// stop packet so a torn link fails the run instead of hanging it.
func (t *TCP) fault(err error) {
	t.errMu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	inject := !t.stopped
	t.stopped = true
	t.errMu.Unlock()
	if !inject {
		return
	}
	for _, ch := range t.inboxes {
		select {
		case ch <- Packet{Kind: PktStop}:
		default: // inbox full — the LP will drain to the stop eventually
		}
	}
}

// Close implements the flush/shutdown contract. Safe to call more than once
// and before Start (a failed or unstarted transport just reports its error).
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		if !t.alive || t.peers.NumRanks == 1 {
			t.closeErr = t.err()
			return
		}
		// Writes go straight to the socket in Send, so "flush" is a
		// half-close per peer: FIN tells each reader on the far side that
		// this rank is done sending.
		for _, sc := range t.out {
			if sc == nil {
				continue
			}
			sc.mu.Lock()
			sc.conn.CloseWrite()
			sc.mu.Unlock()
		}
		// Drain: wait for every peer's FIN, bounded.
		done := make(chan struct{})
		go func() {
			t.rdWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(t.cfg.DrainTimeout):
			t.fault(fmt.Errorf("comm: tcp rank %d: drain timed out after %v", t.cfg.Rank, t.cfg.DrainTimeout))
			for _, c := range t.in {
				if c != nil {
					c.Close()
				}
			}
			<-done
		}
		if t.listen != nil {
			t.listen.Close()
		}
		for _, sc := range t.out {
			if sc != nil {
				sc.conn.Close()
			}
		}
		for _, c := range t.in {
			if c != nil {
				c.Close()
			}
		}
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

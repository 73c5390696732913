package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// drivers names TCP's two ways of moving bytes; every wire test runs over
// both.
var drivers = []struct {
	name   string
	polled bool
}{{"polled", true}, {"channel", false}}

// rank is one end of a test mesh. Under the polled driver it stands in for
// the kernel: its sink files what the transport delivers by LP, its ring
// counts the doorbell's rings, and recv and send do the polling and flushing
// a worker's round would.
type rank struct {
	*TCP
	polled bool
	mu     sync.Mutex
	got    map[int][]Packet
	rings  atomic.Int64
	rang   chan struct{}
}

func (r *rank) sink(lp int, p Packet) {
	r.mu.Lock()
	r.got[lp] = append(r.got[lp], p)
	r.mu.Unlock()
}

func (r *rank) ring() {
	r.rings.Add(1)
	select {
	case r.rang <- struct{}{}:
	default:
	}
}

// rung reports whether the doorbell rings within wait.
func (r *rank) rung(wait time.Duration) bool {
	select {
	case <-r.rang:
		return true
	case <-time.After(wait):
		return false
	}
}

// recv returns the next packet delivered to lp, waiting up to wait for it.
func (r *rank) recv(lp int, wait time.Duration) (Packet, bool) {
	if !r.polled {
		select {
		case p := <-r.Recv(lp):
			return p, true
		default:
		}
		select {
		case p := <-r.Recv(lp):
			return p, true
		case <-time.After(wait):
			return Packet{}, false
		}
	}
	for deadline := time.Now().Add(wait); ; time.Sleep(50 * time.Microsecond) {
		r.Poll()
		r.mu.Lock()
		q := r.got[lp]
		if len(q) > 0 {
			r.got[lp] = q[1:]
		}
		r.mu.Unlock()
		if len(q) > 0 {
			return q[0], true
		}
		if time.Now().After(deadline) {
			return Packet{}, false
		}
	}
}

// mustRecv is recv that fails the test on a timeout.
func (r *rank) mustRecv(t *testing.T, lp int) Packet {
	t.Helper()
	p, ok := r.recv(lp, 5*time.Second)
	if !ok {
		t.Fatalf("rank %d: nothing arrived for LP %d", r.Peers().Rank, lp)
	}
	return p
}

// send is Send followed by the Flush a polled worker's round ends with.
func (r *rank) send(dst int, p Packet) {
	r.Send(dst, p, len(p.Payload))
	if r.polled {
		r.Flush(true)
	}
}

// inject writes raw bytes to peer's socket behind the framing layer's back.
func (r *rank) inject(t *testing.T, peer int, raw []byte) {
	t.Helper()
	if _, err := r.out[peer].conn.Write(raw); err != nil {
		t.Fatalf("inject: %v", err)
	}
}

// tcpMesh builds a started 2-rank TCP mesh over loopback with numLPs LPs, on
// the given driver. Pre-binding the listeners on port 0 gives both ranks real
// addresses before either transport starts, so tests never race on port
// choice.
func tcpMesh(t testing.TB, numLPs int, polled bool) (*rank, *rank) {
	t.Helper()
	return tcpMeshDrain(t, numLPs, polled, 5*time.Second)
}

// tcpMeshDrain is tcpMesh with a drain timeout of the test's choosing; each
// prep runs on each transport before it starts.
func tcpMeshDrain(t testing.TB, numLPs int, polled bool, drain time.Duration, prep ...func(*TCP)) (*rank, *rank) {
	t.Helper()
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	ranks := make([]*rank, 2)
	for i := range ranks {
		tr, err := NewTCP(TCPConfig{
			Rank: i, Addrs: addrs, NumLPs: numLPs,
			DialTimeout: 5 * time.Second, DrainTimeout: drain,
			Listener: lns[i],
		})
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		ranks[i] = &rank{TCP: tr, polled: polled, got: make(map[int][]Packet), rang: make(chan struct{}, 1)}
		if polled {
			tr.SetSink(ranks[i].sink, ranks[i].ring)
		}
		for _, f := range prep {
			f(tr)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, r := range ranks {
		wg.Add(1)
		go func(i int, r *rank) { defer wg.Done(); errs[i] = r.Start() }(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d start: %v", i, err)
		}
	}
	return ranks[0], ranks[1]
}

// tcpPair is the mesh on the reader driver, delivering into channels, for
// tests that are not about the wire.
func tcpPair(t *testing.T, numLPs int) (*TCP, *TCP) {
	t.Helper()
	r0, r1 := tcpMesh(t, numLPs, false)
	return r0.TCP, r1.TCP
}

// closeAll closes every end concurrently, the way live ranks do — the drain
// in Close waits for the peer's FIN, so sequential closes would stall a full
// drain timeout — and returns each end's error.
func closeAll(trs ...*TCP) []error {
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *TCP) { defer wg.Done(); errs[i] = tr.Close() }(i, tr)
	}
	wg.Wait()
	return errs
}

// closePair is closeAll for meshes that must close cleanly.
func closePair(t *testing.T, trs ...*TCP) {
	t.Helper()
	for i, err := range closeAll(trs...) {
		if err != nil {
			t.Errorf("close rank %d: %v", trs[i].Peers().Rank, err)
		}
	}
}

func TestTCPPeersTopology(t *testing.T) {
	t0, t1 := tcpPair(t, 5)
	defer closePair(t, t0, t1)
	p0, p1 := t0.Peers(), t1.Peers()
	if !p0.Distributed() || !p1.Distributed() {
		t.Fatal("2-rank mesh not Distributed")
	}
	if p0.NumLPs != 5 || p1.NumLPs != 5 || p0.NumRanks != 2 || p1.NumRanks != 2 {
		t.Fatalf("topology: %+v / %+v", p0, p1)
	}
	// Block assignment of 5 LPs over 2 ranks: [0,1] and [2,3,4].
	want0, want1 := []int{0, 1}, []int{2, 3, 4}
	for i, lp := range want0 {
		if p0.Local[i] != lp || slices.Contains(p1.Local, lp) {
			t.Fatalf("LP %d placement wrong: %v / %v", lp, p0.Local, p1.Local)
		}
	}
	for i, lp := range want1 {
		if p1.Local[i] != lp || slices.Contains(p0.Local, lp) {
			t.Fatalf("LP %d placement wrong: %v / %v", lp, p0.Local, p1.Local)
		}
	}
	for lp := 0; lp < 5; lp++ {
		want := 0
		if lp >= 2 {
			want = 1
		}
		if got := RankOf(lp, 5, 2); got != want {
			t.Fatalf("RankOf(%d) = %d, want %d", lp, got, want)
		}
	}
}

// TestTCPSendRecv drives packets both directions — remote (framed over the
// socket) and local (short-circuited) — and checks payload fidelity and
// per-sender FIFO order.
func TestTCPSendRecv(t *testing.T) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			r0, r1 := tcpMesh(t, 4, d.polled) // rank 0: LPs 0,1; rank 1: LPs 2,3
			defer closePair(t, r0.TCP, r1.TCP)

			// Remote: rank 0's LP 0 -> LP 2, in order.
			for i := 0; i < 10; i++ {
				r0.send(2, Packet{Kind: PktEvents, From: 0, Count: i, Payload: []byte{byte(i)}})
			}
			for i := 0; i < 10; i++ {
				p := r1.mustRecv(t, 2)
				if p.Kind != PktEvents || p.From != 0 || p.Count != i || !bytes.Equal(p.Payload, []byte{byte(i)}) {
					t.Fatalf("packet %d arrived as %+v", i, p)
				}
			}

			// Remote the other way, a control packet.
			r1.send(1, Packet{Kind: PktToken, From: 3, Token: Token{M: 7, Count: -1, Epoch: 3}})
			if p := r0.mustRecv(t, 1); p.Kind != PktToken || p.Token.M != 7 || p.Token.Count != -1 || p.Token.Epoch != 3 {
				t.Fatalf("token arrived as %+v", p)
			}

			// Local short circuit (never touches the socket, so a
			// capsule-style any payload survives).
			marker := &struct{ x int }{42}
			r0.send(1, Packet{Kind: PktMigrate, From: 0, Capsule: marker})
			if p := r0.mustRecv(t, 1); p.Capsule != marker {
				t.Fatal("local send did not preserve pointer payload")
			}
		})
	}
}

func TestTCPRecvNonLocalPanics(t *testing.T) {
	t0, t1 := tcpPair(t, 4)
	defer closePair(t, t0, t1)
	defer func() {
		if recover() == nil {
			t.Fatal("Recv of a non-local LP did not panic")
		}
	}()
	t0.Recv(3)
}

// TestTCPReadBoundaries: the parser sees a byte stream, not frames — a frame
// may arrive in two reads, many frames in one, and a frame may be longer than
// the read buffer.
func TestTCPReadBoundaries(t *testing.T) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			r0, r1 := tcpMesh(t, 2, d.polled)
			defer closePair(t, r0.TCP, r1.TCP)

			frame, err := AppendFrame(nil, 1, Packet{Kind: PktEvents, From: 0, Count: 7, Payload: []byte("split me")})
			if err != nil {
				t.Fatal(err)
			}
			for _, cut := range []int{2, 4, len(frame) - 1} { // inside the length, at the body, before the last byte
				r0.inject(t, 1, frame[:cut])
				if p, ok := r1.recv(1, 20*time.Millisecond); ok {
					t.Fatalf("%d of %d bytes of a frame delivered %+v", cut, len(frame), p)
				}
				r0.inject(t, 1, frame[cut:])
				if p := r1.mustRecv(t, 1); p.Count != 7 || string(p.Payload) != "split me" {
					t.Fatalf("frame cut at %d arrived as %+v", cut, p)
				}
			}

			var many []byte
			for i := 0; i < 500; i++ {
				if many, err = AppendFrame(many, 1, Packet{Kind: PktGVT, From: 0, GVT: vtime.Time(i)}); err != nil {
					t.Fatal(err)
				}
			}
			r0.inject(t, 1, many)
			for i := 0; i < 500; i++ {
				if p := r1.mustRecv(t, 1); p.Kind != PktGVT || p.GVT != vtime.Time(i) {
					t.Fatalf("frame %d of one write arrived as %+v", i, p)
				}
			}

			big := make([]byte, 3*tcpReadBytes+5)
			for i := range big {
				big[i] = byte(i)
			}
			r0.send(1, Packet{Kind: PktReport, From: 0, Payload: big})
			r0.send(1, Packet{Kind: PktStop, From: 0})
			if p := r1.mustRecv(t, 1); !bytes.Equal(p.Payload, big) {
				t.Fatalf("a %d-byte frame arrived with %d bytes", len(big), len(p.Payload))
			}
			if p := r1.mustRecv(t, 1); p.Kind != PktStop {
				t.Fatalf("the frame after the long one arrived as %+v", p)
			}
		})
	}
}

// TestTCPBadFrames: every malformed frame faults the receiving transport —
// each local LP is told to stop, and Close reports what was wrong.
func TestTCPBadFrames(t *testing.T) {
	stop, err := AppendFrame(nil, 1, Packet{Kind: PktStop, From: 0})
	if err != nil {
		t.Fatal(err)
	}
	badVersion := append([]byte(nil), stop...)
	badVersion[4] = WireVersion + 1
	trailing := append(append([]byte(nil), stop...), 0xee)
	binary.LittleEndian.PutUint32(trailing, uint32(len(trailing)-4))
	oversized := binary.LittleEndian.AppendUint32(nil, MaxFrameBody+1)
	elsewhere, err := AppendFrame(nil, 0, Packet{Kind: PktStop, From: 0}) // LP 0 is the sender's own
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		raw   []byte
		close bool // half-close after raw: the frame ends early
		want  error
	}{
		{"truncated", stop[:len(stop)-3], true, io.ErrUnexpectedEOF},
		{"truncated-length", stop[:2], true, io.ErrUnexpectedEOF},
		{"oversized", oversized, false, ErrFrameTooLarge},
		{"bad-version", badVersion, false, ErrFrameVersion},
		{"trailing", trailing, false, ErrFrameTrailing},
		{"non-local", elsewhere, false, nil},
	}
	for _, d := range drivers {
		for _, tc := range cases {
			t.Run(d.name+"/"+tc.name, func(t *testing.T) {
				r0, r1 := tcpMesh(t, 3, d.polled) // rank 0: LP 0; rank 1: LPs 1, 2
				good := Packet{Kind: PktGVT, From: 0, GVT: 5}
				r0.send(2, good)
				r0.inject(t, 1, tc.raw)
				if tc.close {
					r0.out[1].conn.CloseWrite()
				}
				if p := r1.mustRecv(t, 2); p.Kind != PktGVT {
					t.Fatalf("the good frame before the bad one arrived as %+v", p)
				}
				for _, lp := range []int{1, 2} {
					if p := r1.mustRecv(t, lp); p.Kind != PktStop {
						t.Fatalf("LP %d got %+v, want the fault's stop", lp, p)
					}
				}
				errs := closeAll(r0.TCP, r1.TCP)
				if errs[1] == nil || (tc.want != nil && !errors.Is(errs[1], tc.want)) {
					t.Fatalf("receiver's Close = %v, want %v", errs[1], tc.want)
				}
			})
		}
	}
}

// sever kills every connection of r the way a dying process with unread
// input does: reset, no FIN. A dying process closes every descriptor, the
// doorbells' copies too, or the sockets would outlive it.
func (r *rank) sever() {
	for _, sc := range r.out {
		if sc != nil {
			sc.conn.SetLinger(0)
			sc.conn.Close()
		}
	}
	for _, rc := range r.in {
		if rc != nil {
			rc.conn.SetLinger(0)
			rc.conn.Close()
			if rc.bell != nil {
				rc.bell.file.Close()
			}
		}
	}
}

// TestTCPPeerDisconnect: a peer that vanishes mid-run faults the survivor —
// its LPs are told to stop and Close returns the link's error rather than
// waiting for a FIN that will not come.
func TestTCPPeerDisconnect(t *testing.T) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			r0, r1 := tcpMesh(t, 4, d.polled)
			r0.send(2, Packet{Kind: PktGVT, From: 0, GVT: 1})
			r1.mustRecv(t, 2)
			r1.sever()
			for _, lp := range []int{0, 1} {
				if p := r0.mustRecv(t, lp); p.Kind != PktStop {
					t.Fatalf("LP %d got %+v, want the fault's stop", lp, p)
				}
			}
			// Sends after the fault are dropped, not blocked on or panicked over.
			r0.send(2, Packet{Kind: PktGVT, From: 0, GVT: 2})
			start := time.Now()
			if err := r0.Close(); err == nil {
				t.Fatal("Close after a reset link returned nil")
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("Close took %v: it waited out the drain on a dead link", took)
			}
			r1.Close()
		})
	}
}

// TestTCPPeerLeavesQuietly: a peer whose sockets close cleanly mid-run — a
// FIN, which is also how a run that ends well looks from here — is a fault
// once the drain timeout has passed without the run's stop broadcast having
// come through; an idle rank would otherwise wait for ever. After a stop, the
// same FIN is the normal end.
func TestTCPPeerLeavesQuietly(t *testing.T) {
	for _, d := range drivers {
		for _, stopped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stopped=%v", d.name, stopped), func(t *testing.T) {
				const drain = 150 * time.Millisecond
				r0, r1 := tcpMeshDrain(t, 2, d.polled, drain)
				if stopped {
					r1.send(0, Packet{Kind: PktStop, From: 1})
					if p := r0.mustRecv(t, 0); p.Kind != PktStop {
						t.Fatalf("got %+v, want the stop", p)
					}
				}
				r1.out[0].conn.CloseWrite()
				p, ok := r0.recv(0, 4*drain)
				if stopped {
					if ok {
						t.Fatalf("a FIN after the stop delivered %+v", p)
					}
					closePair(t, r0.TCP, r1.TCP)
					return
				}
				if !ok || p.Kind != PktStop {
					t.Fatalf("a FIN mid-run delivered %+v (%v), want the fault's stop", p, ok)
				}
				if errs := closeAll(r0.TCP, r1.TCP); errs[0] == nil || !strings.Contains(errs[0].Error(), "mid-run") {
					t.Fatalf("survivor's Close = %v", errs[0])
				}
			})
		}
	}
}

// TestTCPCloseDrains: packets sent just before Close must have been delivered
// on the far side once both sides have closed — Close flushes, half-closes
// and drains rather than tearing the link down.
func TestTCPCloseDrains(t *testing.T) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			r0, r1 := tcpMesh(t, 2, d.polled)
			for i := 0; i < 100; i++ {
				r0.Send(1, Packet{Kind: PktEvents, From: 0, Count: i}, 0) // no Flush: Close owes it
			}
			closePair(t, r0.TCP, r1.TCP)
			for i := 0; i < 100; i++ {
				p, ok := r1.recv(1, 0)
				if !ok {
					t.Fatalf("packet %d lost across Close", i)
				}
				if p.Count != i {
					t.Fatalf("packet %d arrived as Count=%d", i, p.Count)
				}
			}
			if err := r0.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestTCPDriverGoroutines: the reader driver runs one reader goroutine per
// peer; the polled driver runs none — whoever calls Poll is the reader — and
// one doorbell per inbound link at most, which reads nothing: every byte one
// end wrote, the other's Polls read.
func TestTCPDriverGoroutines(t *testing.T) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			r0, r1 := tcpMesh(t, 2, d.polled)
			// A round trip with both ends armed, so that whatever reads the
			// sockets or watches them has started.
			r0.Arm()
			r1.Arm()
			r0.send(1, Packet{Kind: PktGVT, From: 0})
			r1.mustRecv(t, 1)
			r1.send(0, Packet{Kind: PktGVT, From: 1})
			r0.mustRecv(t, 0)
			readers, bells := 2, 0
			if d.polled {
				readers, bells = 0, 2
			}
			stacks := allStacks()
			if got := strings.Count(stacks, "comm.(*TCP).readLoop"); got != readers {
				t.Errorf("%d reader goroutines across two ranks, want %d", got, readers)
			}
			if got := strings.Count(stacks, "comm.(*doorbell).run"); got > bells {
				t.Errorf("%d doorbells across two ranks with one inbound link each, want at most %d", got, bells)
			}
			if r0.Links()[0].Ended || r1.Links()[0].Ended {
				t.Error("a live link reads as ended")
			}
			closePair(t, r0.TCP, r1.TCP)
			for i, ends := range [][2]*rank{{r0, r1}, {r1, r0}} {
				out, in := ends[0].Links()[0], ends[1].Links()[0]
				if out.BytesOut != in.BytesIn {
					t.Errorf("link %d: %d bytes written, %d read by Polls", i, out.BytesOut, in.BytesIn)
				}
				if !in.Ended {
					t.Errorf("link %d: not ended after both ranks closed", i)
				}
			}
		})
	}
}

// TestTCPReaderSink drives the reader driver into a sink — what SetSink
// leaves where the non-blocking socket calls are missing — here, where they
// exist, by clearing them after SetSink: a reader per peer delivers into the
// sink in send order with nobody polling, Send writes at once, Recv has no
// channel, Poll, Flush and Arm do nothing, and Close drains what was sent
// just before it.
func TestTCPReaderSink(t *testing.T) {
	r0, r1 := tcpMeshDrain(t, 2, true, 5*time.Second, func(tr *TCP) { tr.nonblock, tr.watch = nil, nil })
	const frames = 200
	for i := 0; i < frames; i++ {
		r0.Send(1, Packet{Kind: PktEvents, From: 0, Count: i}, 0) // no Flush
	}
	delivered := func() []Packet {
		r1.mu.Lock()
		defer r1.mu.Unlock()
		return slices.Clone(r1.got[1])
	}
	for deadline := time.Now().Add(5 * time.Second); len(delivered()) < frames; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames reached the sink", len(delivered()), frames)
		}
	}
	if got := strings.Count(allStacks(), "comm.(*TCP).readLoop"); got != 2 {
		t.Errorf("%d reader goroutines across two ranks, want 2", got)
	}
	if r1.Recv(1) != nil {
		t.Error("Recv returned a channel beside the sink")
	}
	r1.Arm()
	r1.Poll() // the readers read: a Poll that did would block in it
	r1.Flush(true)
	for i := frames; i < 2*frames; i++ {
		r0.Send(1, Packet{Kind: PktEvents, From: 0, Count: i}, 0)
	}
	closePair(t, r0.TCP, r1.TCP)
	got := delivered()
	if len(got) != 2*frames {
		t.Fatalf("%d of %d frames reached the sink across Close", len(got), 2*frames)
	}
	for i, p := range got {
		if p.Count != i {
			t.Fatalf("frame %d reached the sink as Count=%d", i, p.Count)
		}
	}
}

// TestTCPArmRings: after Arm the polled driver calls the ring function once, as
// soon as a peer's link has something for a Poll — a frame, the peer's FIN, a
// reset — and at once if it has already; it reads nothing to find out, and it
// rings at no other time. Rank 0 sends, rank 1 is armed, and nobody polls
// until a case says so.
func TestTCPArmRings(t *testing.T) {
	const quiet = 50 * time.Millisecond // how long a doorbell that should not ring is given
	frame := func(r0 *rank) { r0.send(1, Packet{Kind: PktGVT, From: 0, GVT: 1}) }
	mustRing := func(t *testing.T, r *rank, what string) {
		t.Helper()
		if !r.rung(5 * time.Second) {
			t.Fatalf("%s did not ring", what)
		}
	}
	mustNotRing := func(t *testing.T, r *rank, what string) {
		t.Helper()
		if r.rung(quiet) {
			t.Fatalf("%s rang", what)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, r0, r1 *rank)
	}{
		{"a frame after arming rings", func(t *testing.T, r0, r1 *rank) {
			r1.Arm()
			mustNotRing(t, r1, "an armed, quiet link")
			frame(r0)
			mustRing(t, r1, "a peer's frame")
			if in := r1.Links()[0]; in.Reads != 0 || in.BytesIn != 0 {
				t.Errorf("before any Poll the link shows %d reads of %d bytes", in.Reads, in.BytesIn)
			}
			if p := r1.mustRecv(t, 1); p.Kind != PktGVT || p.GVT != 1 {
				t.Errorf("the Poll after the ring found %+v", p)
			}
		}},
		{"arming with bytes waiting rings at once", func(t *testing.T, r0, r1 *rank) {
			r1.Arm()
			frame(r0)
			mustRing(t, r1, "a peer's frame")
			r1.Arm() // the frame is still in the socket: nobody polled
			mustRing(t, r1, "arming over an unread frame")
			if p := r1.mustRecv(t, 1); p.Kind != PktGVT {
				t.Errorf("the Poll after the rings found %+v", p)
			}
		}},
		{"an un-armed link does not ring", func(t *testing.T, r0, r1 *rank) {
			frame(r0)
			mustNotRing(t, r1, "a frame nobody armed for")
			r1.Arm()
			mustRing(t, r1, "arming over an unread frame")
			frame(r0) // the ring answered the Arm; this frame is nobody's
			mustNotRing(t, r1, "a second frame after one Arm")
			if n := r1.rings.Load(); n != 1 {
				t.Errorf("%d rings for one Arm", n)
			}
		}},
		{"a half-close rings once and is not watched again", func(t *testing.T, r0, r1 *rank) {
			r0.send(1, Packet{Kind: PktStop, From: 0}) // a FIN after the stop ends a run well
			if p := r1.mustRecv(t, 1); p.Kind != PktStop {
				t.Fatalf("got %+v, want the stop", p)
			}
			r1.Arm()
			r0.out[1].conn.CloseWrite()
			mustRing(t, r1, "the peer's FIN")
			r1.Poll() // reads the end
			r1.Arm()
			mustNotRing(t, r1, "a link that has delivered its end")
			if n := r1.rings.Load(); n != 1 {
				t.Errorf("%d rings, want the FIN's one", n)
			}
		}},
		{"a reset rings and fails the link", func(t *testing.T, r0, r1 *rank) {
			r1.Arm()
			r0.sever()
			mustRing(t, r1, "the peer's reset")
			// The doorbell's peek took the socket's error, so the doorbell
			// reports it: the LPs are told to stop now, not a drain timeout
			// later when a read finds what looks like a clean end.
			r1.mu.Lock()
			got := append([]Packet(nil), r1.got[1]...)
			r1.mu.Unlock()
			if len(got) != 1 || got[0].Kind != PktStop {
				t.Fatalf("LP 1 got %v, want the fault's stop", got)
			}
			if err := r1.Close(); err == nil || !strings.Contains(err.Error(), "read from rank 0") {
				t.Fatalf("Close = %v, want the link's read error", err)
			}
		}},
		{"Close leaves no doorbell", func(t *testing.T, r0, r1 *rank) {
			r0.Arm()
			r1.Arm()
			closePair(t, r0.TCP, r1.TCP)
			if got := strings.Count(allStacks(), "comm.(*doorbell).run"); got != 0 {
				t.Errorf("%d doorbells outlived Close", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r0, r1 := tcpMesh(t, 2, true) // rank 0 hosts LP 0, rank 1 LP 1
			defer closeAll(r0.TCP, r1.TCP)
			tc.run(t, r0, r1)
		})
	}
}

// TestTCPDialBackoff: a rank that starts before its peer listens dials again
// within a millisecond or two of a refusal, so the join costs about what the
// peer was late (here 5 ms) and not 50 ms a refusal, and dialing gives up at
// its deadline, not a sleep past it.
func TestTCPDialBackoff(t *testing.T) {
	free := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), free()} // rank 1 binds its own, late
	trs := make([]*TCP, 2)
	for r := range trs {
		cfg := TCPConfig{Rank: r, Addrs: addrs, NumLPs: 2, DialTimeout: 5 * time.Second}
		if r == 0 {
			cfg.Listener = ln0
		}
		if trs[r], err = NewTCP(cfg); err != nil {
			t.Fatal(err)
		}
	}
	late := make(chan error, 1)
	start := time.Now()
	go func() {
		time.Sleep(5 * time.Millisecond)
		late <- trs[1].Start()
	}()
	err = trs[0].Start()
	took := time.Since(start)
	if lerr := <-late; err != nil || lerr != nil {
		t.Fatalf("start: %v / %v", err, lerr)
	}
	closePair(t, trs...)
	if took > 20*time.Millisecond {
		t.Errorf("rank 0's Start took %v for a peer 5 ms late", took)
	}

	start = time.Now()
	if _, err := dialRetry(free(), start.Add(20*time.Millisecond)); err == nil {
		t.Fatal("dialed an address nobody listens on")
	}
	if took := time.Since(start); took > 40*time.Millisecond {
		t.Errorf("dialing with a 20 ms deadline gave up after %v", took)
	}
}

func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// TestTCPSendNeverBlocks (polled driver): Send to a peer that has stopped
// polling returns at once however much is outstanding — the out-buffer grows
// instead — and once the peer polls again everything arrives, in order.
func TestTCPSendNeverBlocks(t *testing.T) {
	r0, r1 := tcpMesh(t, 2, true)
	defer closePair(t, r0.TCP, r1.TCP)
	const frames, size = 256, 64 << 10 // 16 MiB: far more than loopback's socket buffers hold
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < frames; i++ {
			// A slice per frame: Send keeps the payload it is given.
			r0.send(1, Packet{Kind: PktEvents, From: 0, Count: i, Payload: make([]byte, size)})
		}
	}()
	select {
	case <-sent:
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked on a peer that is not reading")
	}
	sc := r0.out[1]
	sc.mu.Lock()
	backlog := len(sc.buf) - sc.off
	sc.mu.Unlock()
	if backlog < 8<<20 {
		t.Fatalf("%d bytes buffered after sending %d to a stalled peer", backlog, frames*size)
	}
	for i := 0; i < frames; i++ {
		r0.Flush(true) // the sender's next rounds
		if p := r1.mustRecv(t, 1); p.Count != i || len(p.Payload) != size {
			t.Fatalf("frame %d arrived as Count=%d with %d bytes", i, p.Count, len(p.Payload))
		}
	}
}

// TestTCPCloseWithBacklogBothWays (polled driver): two ranks each holding
// megabytes the other has not read must both get through Close — each has to
// read while it writes, or neither's socket ever drains.
func TestTCPCloseWithBacklogBothWays(t *testing.T) {
	r0, r1 := tcpMesh(t, 2, true)
	const frames, size = 256, 64 << 10 // 16 MiB each way, of which loopback's buffers take a few
	for i := 0; i < frames; i++ {
		// A slice per frame: Send keeps the payload it is given.
		r0.Send(1, Packet{Kind: PktEvents, From: 0, Count: i, Payload: make([]byte, size)}, size)
		r1.Send(0, Packet{Kind: PktEvents, From: 1, Count: i, Payload: make([]byte, size)}, size)
	}
	for _, r := range []*rank{r0, r1} {
		sc := r.out[1-r.Peers().Rank]
		sc.mu.Lock()
		backlog := len(sc.buf) - sc.off
		sc.mu.Unlock()
		if backlog < 8<<20 {
			t.Fatalf("rank %d holds %d bytes unflushed, want at least 8 MiB", r.Peers().Rank, backlog)
		}
	}
	closed := make(chan []error, 1)
	go func() { closed <- closeAll(r0.TCP, r1.TCP) }()
	select {
	case errs := <-closed:
		for i, err := range errs {
			if err != nil {
				t.Errorf("close rank %d: %v", i, err)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Close deadlocked with a backlog in both directions")
	}
	for _, r := range []*rank{r0, r1} {
		lp := r.Peers().Rank
		if n := len(r.got[lp]); n != frames {
			t.Errorf("rank %d received %d of %d frames across Close", lp, n, frames)
		}
	}
}

// TestTCPTopologyMismatch: a fleet whose ranks disagree on the LP count must
// fail the join handshake, not limp into a torn run.
func TestTCPTopologyMismatch(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	mk := func(rank, numLPs int, ln net.Listener) *TCP {
		tr, err := NewTCP(TCPConfig{
			Rank: rank, Addrs: addrs, NumLPs: numLPs,
			DialTimeout: 5 * time.Second, Listener: ln,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t0, t1 := mk(0, 4, ln0), mk(1, 6, ln1)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, tr := range []*TCP{t0, t1} {
		wg.Add(1)
		go func(i int, tr *TCP) { defer wg.Done(); errs[i] = tr.Start() }(i, tr)
	}
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("mismatched topologies joined successfully")
	}
}

// TestTCPFlushHold: a worker's end-of-round Flush(false) leaves a link alone
// that was written less than wireBudget times its write cost ago, so that
// several rounds' frames share a system call — and never otherwise: not before
// a write has been timed, not once the budget has passed, not when
// tcpFlushBytes have gathered, and never on Flush(true) or Close, which is
// all that stands between a held frame and a peer that waits for it. The
// links' tallies count every system call on the way, and every byte one end
// wrote the other read.
func TestTCPFlushHold(t *testing.T) {
	r0, r1 := tcpMesh(t, 2, true) // rank 0 hosts LP 0, rank 1 LP 1
	link := r0.out[1]
	send := func(i int, payload []byte) {
		r0.Send(1, Packet{Kind: PktEvents, From: 0, Count: i, Payload: payload}, len(payload))
	}
	arrives := func(i int) {
		t.Helper()
		if p := r1.mustRecv(t, 1); p.Count != i {
			t.Fatalf("packet %d arrived where %d was due", p.Count, i)
		}
	}

	// Nothing timed yet: the first frames go out with the round that sent them.
	send(0, []byte{0})
	r0.Flush(false)
	arrives(0)
	if link.cost.Load() <= 0 {
		t.Fatal("the link's first write was not timed")
	}

	// Written a moment ago, and dear: the frame waits for company, for as
	// long as nobody says the sender is about to wait itself.
	link.cost.Store(int64(time.Hour))
	send(1, []byte{1})
	r0.Flush(false)
	if p, ok := r1.recv(1, 20*time.Millisecond); ok {
		t.Fatalf("packet %d left on an opportunistic flush %v after the link's last write", p.Count, time.Since(link.wrote))
	}
	send(2, []byte{2})
	r0.Flush(true)
	arrives(1)
	arrives(2)

	// A sender whose rounds outlast the budget flushes every round.
	link.cost.Store(1)
	send(3, []byte{3})
	r0.Flush(false)
	arrives(3)

	// A buffer's worth is written by Send itself, whatever a write costs.
	link.cost.Store(int64(time.Hour))
	send(4, make([]byte, tcpFlushBytes))
	arrives(4)

	// Close flushes what an opportunistic flush left.
	link.cost.Store(int64(time.Hour))
	send(5, []byte{5})
	r0.Flush(false)
	closePair(t, r0.TCP, r1.TCP)
	if q := r1.got[1]; len(q) != 1 || q[0].Count != 5 {
		t.Fatalf("Close delivered %v, want the held packet 5", q)
	}

	out, in := r0.Links()[0], r1.Links()[0]
	if out.Peer != 1 || in.Peer != 0 {
		t.Errorf("links name peers %d and %d, want 1 and 0", out.Peer, in.Peer)
	}
	if out.Writes-out.ShortWrites != 5 {
		t.Errorf("rank 0 wrote %d times (%d refused in part), want 5 writes that emptied its buffer: one for packets 1 and 2", out.Writes, out.ShortWrites)
	}
	if out.BytesOut <= tcpFlushBytes || out.BytesOut != in.BytesIn {
		t.Errorf("rank 0 wrote %d bytes and rank 1 read %d", out.BytesOut, in.BytesIn)
	}
	if in.EmptyReads == 0 || in.Reads <= in.EmptyReads {
		t.Errorf("rank 1 made %d reads, %d of them empty: want some of each", in.Reads, in.EmptyReads)
	}
	if out.WriteCostNS <= 0 {
		t.Errorf("write cost %d ns", out.WriteCostNS)
	}
}

// TestTCPEndpointSharesFreeList: an endpoint that sends through a TCP keeps its
// wire buffers on its own bounded list (its worker's, in a run) and, past the
// bound, on the transport's: what a burst hands back beyond maxFreeWireBufs is
// there for the parser and for the rank's other endpoints, and an endpoint that
// has run dry takes from it.
func TestTCPEndpointSharesFreeList(t *testing.T) {
	tr, err := NewTCP(TCPConfig{Rank: 0, Addrs: []string{"127.0.0.1:1", "127.0.0.1:2"}, NumLPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var st stats.Counters
	ep := NewSendEndpoint(tr, 2, 0, AggConfig{}, &st)
	const burst = maxFreeWireBufs + 8
	for i := 0; i < burst; i++ {
		ep.recycleWire(make([]byte, 0, 64))
	}
	if len(*ep.Wires) != maxFreeWireBufs || len(tr.free) != burst-maxFreeWireBufs {
		t.Fatalf("after a burst of %d: %d buffers on the endpoint's list and %d on the transport's, want %d and %d",
			burst, len(*ep.Wires), len(tr.free), maxFreeWireBufs, burst-maxFreeWireBufs)
	}
	for i := 0; i < burst; i++ {
		if b := ep.takeWire(); cap(b) != 64 {
			t.Fatalf("take %d of %d returned a buffer of capacity %d", i, burst, cap(b))
		}
	}
	if b := ep.takeWire(); b != nil || len(tr.free) != 0 {
		t.Fatalf("both lists should be empty: took capacity %d, transport holds %d", cap(b), len(tr.free))
	}
	// Over anything else an endpoint's list is all there is, and endpoints that
	// share one (the LPs of a worker) feed each other.
	lone := NewSendEndpoint(NewInProc(2), 2, 0, AggConfig{}, &st)
	peer := NewSendEndpoint(NewInProc(2), 2, 1, AggConfig{}, &st)
	peer.Wires = lone.Wires
	for i := 0; i < burst; i++ {
		lone.recycleWire(make([]byte, 0, 64))
	}
	if len(*lone.Wires) != maxFreeWireBufs {
		t.Fatalf("in process the list holds %d, want %d", len(*lone.Wires), maxFreeWireBufs)
	}
	if b := peer.takeWire(); cap(b) != 64 || len(*lone.Wires) != maxFreeWireBufs-1 {
		t.Fatalf("a peer on the same list took capacity %d and left %d listed", cap(b), len(*lone.Wires))
	}
}

// TestHostRanks: which ranks share a machine is read off the address list —
// equal hosts are one machine, every spelling of loopback is the same one, two
// names count as two machines, and an address that does not parse is a machine
// of its own; a rank always counts itself.
func TestHostRanks(t *testing.T) {
	cases := []struct {
		name  string
		addrs []string
		want  []int // by rank
	}{
		{"loopback spellings", []string{"127.0.0.1:7001", "127.0.0.2:7002", "[::1]:7003", "localhost:7004", ":7005"}, []int{5, 5, 5, 5, 5}},
		{"two machines, one port", []string{"10.0.0.1:7000", "10.0.0.2:7000"}, []int{1, 1}},
		{"one name, two ports", []string{"node-a:1", "node-a:2"}, []int{2, 2}},
		{"two and one", []string{"node-a:1", "node-b:1", "node-a:2"}, []int{2, 1, 2}},
		{"loopback beside a name", []string{"127.0.0.1:1", "node-a:1", "localhost:2"}, []int{2, 1, 2}},
		{"unparsable", []string{"node-a", "node-a", "node-a:1", "node-a:2"}, []int{1, 1, 2, 2}},
		{"alone", []string{"no port at all"}, []int{1}},
	}
	for _, tc := range cases {
		for rank, want := range tc.want {
			if got := hostRanks(tc.addrs, rank); got != want {
				t.Errorf("%s: rank %d of %q shares its machine with %d ranks, want %d", tc.name, rank, tc.addrs, got, want)
			}
		}
	}
	// The transport says so in its topology, before any socket exists.
	tr, err := NewTCP(TCPConfig{Rank: 1, Addrs: []string{"10.0.0.1:7000", "127.0.0.1:7000", "localhost:7001"}, NumLPs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Peers().HostRanks; got != 2 {
		t.Errorf("Peers().HostRanks = %d, want 2", got)
	}
}

func TestTCPConfigValidation(t *testing.T) {
	if _, err := NewTCP(TCPConfig{Rank: 0, Addrs: nil, NumLPs: 4}); err == nil {
		t.Error("no addrs accepted")
	}
	if _, err := NewTCP(TCPConfig{Rank: 2, Addrs: []string{"a", "b"}, NumLPs: 4}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := NewTCP(TCPConfig{Rank: 0, Addrs: []string{"a", "b", "c"}, NumLPs: 2}); err == nil {
		t.Error("more ranks than LPs accepted")
	}
}

func TestBlockRanksCoverage(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{4, 2}, {5, 2}, {7, 3}, {3, 3}, {16, 4}, {1, 1}} {
		seen := make([]bool, tc.n)
		for r := 0; r < tc.r; r++ {
			lps := BlockRanks(tc.n, tc.r, r)
			if len(lps) == 0 {
				t.Errorf("n=%d ranks=%d: rank %d hosts nothing", tc.n, tc.r, r)
			}
			for _, lp := range lps {
				if seen[lp] {
					t.Errorf("n=%d ranks=%d: LP %d hosted twice", tc.n, tc.r, lp)
				}
				seen[lp] = true
				if RankOf(lp, tc.n, tc.r) != r {
					t.Errorf("n=%d ranks=%d: RankOf(%d) != %d", tc.n, tc.r, lp, r)
				}
			}
		}
		for lp, s := range seen {
			if !s {
				t.Errorf("n=%d ranks=%d: LP %d unhosted", tc.n, tc.r, lp)
			}
		}
	}
}

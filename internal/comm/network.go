package comm

import (
	"strings"
	"sync"
	"unicode/utf8"

	"gowarp/internal/partition"
	"gowarp/internal/vtime"
)

// PacketKind discriminates physical message types.
type PacketKind uint8

const (
	// PktEvents carries one or more encoded application events.
	PktEvents PacketKind = iota
	// PktToken carries the circulating GVT token.
	PktToken
	// PktGVT broadcasts a newly computed GVT value and, with it, the decisions
	// LP 0's controllers took at that GVT: the optimism window in force from
	// it on (Window) and the load balancer's object moves (Moves). Every LP,
	// LP 0 included, applies the three together, so the window and the moves
	// need no packet of their own. The first GVT past the end time (or +inf,
	// a drained model) is the final one, marked Final: it is how a run that
	// ends well ends, and every LP that applies it stops.
	PktGVT
	// PktStop says the run has failed: From is the rank that failed and
	// Payload one line saying why (see StopPacket). The Time Warp kernel sends
	// one to each other rank; a rank that receives one stops its workers and
	// fails its run naming that rank.
	PktStop
	// PktNull is a Chandy-Misra-Bryant null message: a promise that the
	// sender will emit no event below Bound. No kernel sends one; the kind
	// and its wire arm stay because benchmark/layers.go frames it as its
	// control packet.
	PktNull
	// PktMigrate carries a packed simulation object between LPs. It is
	// color-accounted like an events packet (see Endpoint.SendMigration) so
	// the Mattern GVT token treats an in-flight capsule as a transient
	// message and can never overtake the events it carries.
	PktMigrate
	// PktReport carries a rank's end-of-run report (marshaled final states
	// and counters) to the coordinator of a distributed run. It flows only
	// after every LP has terminated, so it needs no GVT accounting.
	PktReport
)

// Token is the Mattern-style GVT token (see internal/gvt for the protocol).
type Token struct {
	// M is the minimum of the local virtual-time minima of the LPs visited
	// in the current round.
	M vtime.Time
	// MMsg is the minimum receive time of red messages sent so far in this
	// computation.
	MMsg vtime.Time
	// Count is the running sum of (white messages sent − white messages
	// received) over the LPs visited this round; zero at the initiator
	// after a full round means no white message is still in transit.
	Count int64
	// Round counts full circulations within one computation.
	Round int
	// Epoch numbers the GVT computation; Epoch's low bit is the color that
	// LPs flip to ("red") during this computation.
	Epoch uint64
}

// Packet is one physical message on the simulated network.
type Packet struct {
	Kind PacketKind
	From int // sending LP (sending rank for PktReport, failing rank for PktStop)
	// Color is the GVT color the events in Payload were sent under
	// (PktEvents only; uniform within one packet by construction).
	Color uint8
	// Count is the number of events encoded in Payload.
	Count   int
	Payload []byte
	// Comp marks a compressed Payload (see Endpoint.Compress); the receiver
	// must decompress before decoding events.
	Comp bool
	// Final marks the final PktGVT, the one that ends a run that ends well.
	Final bool
	Token Token
	GVT   vtime.Time
	// Bound is a null message's lower bound on the sender's future events.
	Bound vtime.Time
	// Window is the optimism window a PktGVT puts in force (0 = unbounded),
	// and Moves the object migrations it orders, each carried out by the LP
	// it names as source. Moves is shared by every receiver and read-only; it
	// cannot cross a process boundary (see wire.go).
	Window vtime.Time
	Moves  []partition.Move
	// Capsule is a PktMigrate payload: the packed object, opaque to this
	// layer (the kernel defines the concrete type). It rides as a pointer
	// because migration requires the in-process substrate; the ownership
	// contract is still message-passing — the sender never touches it after
	// deliver. Capsules cannot cross a process boundary (see wire.go).
	Capsule any
}

// MaxStopReason bounds the reason a PktStop carries, in bytes.
const MaxStopReason = 1 << 10

// StopPacket is the stop that reports rank's failure. Its reason is the first
// line of why, cut to MaxStopReason bytes at a character boundary; each call
// makes its own payload, which the send that carries it takes.
func StopPacket(rank int, why string) Packet {
	if i := strings.IndexByte(why, '\n'); i >= 0 {
		why = why[:i]
	}
	if n := MaxStopReason; len(why) > n {
		for !utf8.RuneStart(why[n]) {
			n--
		}
		why = why[:n]
	}
	return Packet{Kind: PktStop, From: rank, Payload: []byte(why)}
}

// ends reports whether p ends the run wherever it passes: the final GVT, or
// a stop.
func (p *Packet) ends() bool { return p.Final || p.Kind == PktStop }

// controlBytes approximates the wire size of a control packet for the cost
// model.
const controlBytes = 32

// Option configures an in-process transport (see NewInProc).
type Option func(*inprocOptions)

type inprocOptions struct {
	cost CostModel
}

// WithCost sets the simulated communication cost model charged on every
// Send. The zero model (the default) charges nothing.
func WithCost(c CostModel) Option {
	return func(o *inprocOptions) { o.cost = c }
}

// minInboxDepth is the per-LP inbox channel capacity of both transports. A
// transport with a sink — every one the Time Warp kernel runs over — makes no
// channels; benchmark/layers.go, which reads them, is their one caller.
const minInboxDepth = 1024

// InProc is the in-process Transport: it connects n logical processes living
// in this OS process under a shared simulated cost model. It is what a Time
// Warp run without a Config.Transport uses: with a sink, Send charges the
// cost and hands the packet to the sink on the sender's goroutine, so nothing
// is ever pending and Poll, Flush and Arm have nothing to do. Without one it
// delivers into buffered channel inboxes, made on first use; only
// benchmark/layers.go runs one that way. It is created once per simulation
// run. The zero-cost form is NewInProc(n).
type InProc struct {
	cost      CostModel
	local     []int
	sink      func(lp int, p Packet)
	inboxes   []chan Packet
	inboxOnce sync.Once
}

// NewInProc returns an in-process transport for n LPs.
func NewInProc(n int, opts ...Option) *InProc {
	o := inprocOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	nw := &InProc{cost: o.cost, local: make([]int, n)}
	for i := range nw.local {
		nw.local[i] = i
	}
	return nw
}

// inbox returns lp's receive channel. The channels are made on first use,
// all at once, as TCP's are: a transport with a sink never makes them.
func (n *InProc) inbox(lp int) chan Packet {
	n.inboxOnce.Do(func() {
		n.inboxes = make([]chan Packet, len(n.local))
		for i := range n.inboxes {
			n.inboxes[i] = make(chan Packet, minInboxDepth)
		}
	})
	return n.inboxes[lp]
}

// Peers implements Transport: every LP is local, one rank.
func (n *InProc) Peers() Peers {
	return Peers{NumLPs: len(n.local), Local: n.local, Rank: 0, NumRanks: 1}
}

// Recv returns lp's receive stream; nil once there is a sink.
func (n *InProc) Recv(lp int) <-chan Packet {
	if n.sink != nil {
		return nil
	}
	return n.inbox(lp)
}

// SetSink implements Transport. There is nothing to ring for: a delivery
// reaches the sink before Send returns.
func (n *InProc) SetSink(sink func(lp int, p Packet), _ func()) { n.sink = sink }

// Poll, Flush and Arm implement Transport; in process nothing is ever
// pending, so they return at once.
func (n *InProc) Poll()      {}
func (n *InProc) Flush(bool) {}
func (n *InProc) Arm()       {}

// Start implements the handshake contract; in-process there is nothing to
// join.
func (n *InProc) Start() error { return nil }

// Close implements the flush contract; delivery is synchronous with Send, so
// there is nothing to drain.
func (n *InProc) Close() error { return nil }

// Send charges the sending cost and delivers the packet: to the sink, or
// into dst's channel. The charge is burned on the calling goroutine — the
// sender pays, as in the modelled protocol stacks.
func (n *InProc) Send(dst int, p Packet, payloadBytes int) {
	n.cost.Charge(payloadBytes)
	if n.sink != nil {
		n.sink(dst, p)
		return
	}
	n.inbox(dst) <- p
}

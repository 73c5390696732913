package comm

import (
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
	// need no packet of their own.
	PktGVT
	// PktStop tells a logical process to terminate.
	PktStop
	// PktNull is a conservative-kernel (Chandy-Misra-Bryant) null message:
	// a promise that the sender will emit no event below Bound.
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
	From int // sending LP (or sending rank for PktReport)
	// Color is the GVT color the events in Payload were sent under
	// (PktEvents only; uniform within one packet by construction).
	Color uint8
	// Count is the number of events encoded in Payload.
	Count   int
	Payload []byte
	// Comp marks a compressed Payload (see Endpoint.Compress); the receiver
	// must decompress before decoding events.
	Comp  bool
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

// controlBytes approximates the wire size of a control packet for the cost
// model.
const controlBytes = 32

// Option configures an in-process transport (see NewInProc).
type Option func(*inprocOptions)

type inprocOptions struct {
	cost       CostModel
	inboxDepth int
}

// WithCost sets the simulated communication cost model charged on every
// Send. The zero model (the default) charges nothing.
func WithCost(c CostModel) Option {
	return func(o *inprocOptions) { o.cost = c }
}

// minInboxDepth is the per-LP inbox channel capacity of both transports
// (InProc's minimum and default; the Time Warp kernel moves arrivals on into
// unbounded mailboxes, so only the conservative kernel ever asks for more).
const minInboxDepth = 1024

// WithInboxDepth sets the per-LP inbox channel capacity (minimum and
// default 1024).
func WithInboxDepth(d int) Option {
	return func(o *inprocOptions) { o.inboxDepth = d }
}

// InProc is the in-process Transport: it connects n logical processes living
// in this OS process with buffered channel inboxes and a shared simulated
// cost model. It is created once per simulation run; endpoints are handed to
// the LP goroutines. The zero-cost, default-depth form is NewInProc(n).
type InProc struct {
	cost    CostModel
	inboxes []chan Packet
	local   []int
}

// NewInProc returns an in-process transport for n LPs.
func NewInProc(n int, opts ...Option) *InProc {
	o := inprocOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	if o.inboxDepth < minInboxDepth {
		o.inboxDepth = minInboxDepth
	}
	nw := &InProc{cost: o.cost, inboxes: make([]chan Packet, n), local: make([]int, n)}
	for i := range nw.inboxes {
		nw.inboxes[i] = make(chan Packet, o.inboxDepth)
		nw.local[i] = i
	}
	return nw
}

// Peers implements Transport: every LP is local, one rank.
func (n *InProc) Peers() Peers {
	return Peers{NumLPs: len(n.inboxes), Local: n.local, Rank: 0, NumRanks: 1}
}

// Recv returns lp's receive stream.
func (n *InProc) Recv(lp int) <-chan Packet { return n.inboxes[lp] }

// Start implements the handshake contract; in-process there is nothing to
// join.
func (n *InProc) Start() error { return nil }

// Close implements the flush contract; channel delivery is synchronous with
// Send, so there is nothing to drain.
func (n *InProc) Close() error { return nil }

// Send charges the sending cost and enqueues the packet. The charge is
// burned on the calling goroutine — the sender pays, as in the modelled
// protocol stacks.
func (n *InProc) Send(dst int, p Packet, payloadBytes int) {
	n.cost.Charge(payloadBytes)
	n.inboxes[dst] <- p
}

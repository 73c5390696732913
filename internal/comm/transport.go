package comm

// Transport is the communication substrate abstraction: it delivers physical
// messages (Packets) between logical processes, which may live in this OS
// process (InProc) or be spread across several processes on one or more
// machines (TCP). The GVT manager, the migration protocol and the router send
// through an Endpoint and never know whether a destination LP is next door or
// a socket away.
//
// A transport delivers one of two ways. The Time Warp kernel installs a sink
// (SetSink) on every transport it runs over, its default InProc included, and
// from then on its workers drive the transport: every packet for a hosted LP
// reaches the LP's mailbox through the sink, and the workers poll, flush and
// arm the transport at moments they choose — TCP's sockets are read and
// written by the workers themselves, because workers that never block leave
// no core for a reader goroutine to notice an arrival on. A transport nobody
// gave a sink delivers into the channels Recv returns; the conservative
// kernel's LPs select on them directly.
//
// The contract:
//
//   - Send delivers p to LP dst, charging the sender whatever the transport's
//     cost model says an n-payload-byte physical message costs. Sends to a
//     given destination from a given goroutine are FIFO — the kernel's
//     migration and cancellation protocols rely on per-sender ordering.
//     Send may be called concurrently from different goroutines. p.Payload
//     changes owner with the call: in process the receiver gets that very
//     slice, and TCP, which copies it into a frame, recycles it.
//   - Recv returns the receive stream of a locally hosted LP. The channel is
//     owned by the transport and stays open for the transport's lifetime;
//     requesting a non-local LP's stream is a programming error (panic). A
//     transport with a sink returns nil.
//   - Peers describes the topology: how many LPs exist in total, which of
//     them are hosted in this process, and this process's rank.
//   - SetSink, called once before Start, replaces the Recv channels: every
//     packet for a locally hosted LP — sent here or arrived from a peer — is
//     handed to sink(lp, p) on the goroutine that sent, polled or read it.
//     sink must not block. Packets from one sender reach it in order. ring is
//     the doorbell Arm rings; it must not block either.
//   - Poll delivers what has arrived from the peers since the last call.
//   - Flush pushes out what Send has buffered: all of it when force is set,
//     and otherwise what the transport judges has waited long enough.
//   - Arm is for a caller about to wait: after it the transport calls ring,
//     once, as soon as a peer's link has something for a Poll to find — at
//     once if one has already — from a goroutine of its own. Ring delivers
//     nothing; the caller polls. A transport that cannot tell makes Arm do
//     nothing, so a caller that waits on the ring also keeps a timer; one
//     whose deliveries reach the sink by themselves (InProc, and TCP where it
//     keeps readers) has nothing to poll, flush or arm, and the sink is what
//     wakes the caller.
//   - Start performs the join handshake: it blocks until every peer process
//     is connected and agrees on the topology (LP count, rank count, wire
//     version). In-process transports return immediately. No Send or Recv
//     traffic may flow before Start returns.
//   - Close is the flush/shutdown contract: it flushes any pending wire
//     writes, signals peers that this process is done sending, drains inbound
//     traffic until the peers have done the same (bounded by a drain
//     timeout), and releases sockets. Close is idempotent; it returns the
//     first transport-level error observed during the run, so a run that
//     completed over a corrupt or torn-down link does not pass silently.
//
// Reads and writes are not symmetric, and on purpose. A write costs its
// sender about the same whether it carries one frame or forty, and the peer's
// next read finds them all, so writes may wait for each other: the caller
// says Flush(false) whenever it has sent and goes on working, and the
// transport, which is where a write's cost is measured, decides per link. The
// caller owes Flush(true) before it waits for anything — nothing else will
// push what was held — and when it is done. A read that finds nothing costs a
// fifth of a write, and a read that comes late turns an on-time message into
// a straggler and a rollback, so reads never wait: the caller polls every
// round and every Poll reads.
//
// Neither Poll nor Flush nor Arm ever waits, for a peer or for a socket; all
// three may be called from any number of goroutines at once. A ring answers
// the latest Arm, so callers that wait together hear it together: each arms
// before it waits, and a ring wakes them all. Close still flushes and drains
// by itself.
//
// A transport's own goroutines share the Ps with the workers that drive it,
// and a kernel worker gives its P up between rounds only where its rank has
// more workers than Ps, or the transport is a TCP whose readers deliver
// (TCP.Readers); otherwise only to another worker of its rank
// (core.Config.Workers). A goroutine of any other transport that becomes
// runnable while every worker is busy waits for a worker to wait, or for Go's
// scheduler to preempt one, within 10 ms. A doorbell does not wait: it is
// armed by a worker about to leave its P idle.
//
// A wrapper that embeds Transport (a tracing or fault-injecting decorator)
// has all of this promoted and needs to override only what it observes.
type Transport interface {
	Sender
	Recv(lp int) <-chan Packet
	Peers() Peers
	SetSink(sink func(lp int, p Packet), ring func())
	Poll()
	Flush(force bool)
	Arm()
	Start() error
	Close() error
}

// Peers describes a transport's process topology.
type Peers struct {
	// NumLPs is the total number of logical processes across every rank.
	NumLPs int
	// Local lists the LP indices hosted in this process, in ascending order.
	Local []int
	// Rank is this process's rank (0 for in-process transports). Rank 0 is
	// the coordinator: it hosts LP 0, initiates GVT, and gathers the final
	// results of a distributed run.
	Rank int
	// NumRanks is the total number of processes (1 for in-process).
	NumRanks int
	// HostRanks is how many of the run's ranks, this one included, the
	// transport places on this rank's machine; 0 means it does not know, which
	// the kernel reads as 1. The machine's cores are shared by all of them, so
	// the default dispatcher width divides by it (core.Config.Workers). TCP
	// derives it from its address list (see hostRanks); a transport that knows
	// its placement some other way can say so here.
	HostRanks int
}

// Distributed reports whether the topology spans more than one OS process.
func (p Peers) Distributed() bool { return p.NumRanks > 1 }

// Sender is the sending half of a Transport: all an Endpoint needs of the
// substrate.
type Sender interface {
	Send(dst int, p Packet, payloadBytes int)
}

// BlockRanks maps LPs onto ranks in contiguous blocks: rank r of numRanks
// hosts LPs [r*numLPs/numRanks, (r+1)*numLPs/numRanks). Every rank gets at
// least one LP when numRanks <= numLPs. This is the assignment the TCP
// transport uses, and every rank of a distributed run must agree on it.
func BlockRanks(numLPs, numRanks, rank int) []int {
	lo := rank * numLPs / numRanks
	hi := (rank + 1) * numLPs / numRanks
	lps := make([]int, 0, hi-lo)
	for lp := lo; lp < hi; lp++ {
		lps = append(lps, lp)
	}
	return lps
}

// RankOf inverts BlockRanks: the rank hosting lp under a block assignment.
func RankOf(lp, numLPs, numRanks int) int {
	// With hi = (r+1)*n/R exclusive, lp belongs to the largest r with
	// r*n/R <= lp, which is floor((lp*R + R - 1) / n) ... computed directly:
	r := (lp*numRanks + numRanks - 1) / numLPs
	for r > 0 && lp < r*numLPs/numRanks {
		r--
	}
	for r+1 < numRanks && lp >= (r+1)*numLPs/numRanks {
		r++
	}
	return r
}

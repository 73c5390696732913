package comm

import (
	"time"

	"gowarp/internal/event"
	"gowarp/internal/partition"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// Endpoint is one logical process's attachment to the transport. It owns the
// per-destination aggregation buffers and the GVT message-color accounting.
// All methods must be called from the owning LP goroutine only.
type Endpoint struct {
	lp  int
	tr  Sender
	rx  <-chan Packet // nil when built over a bare Sender (NewSendEndpoint)
	cfg AggConfig
	st  *stats.Counters

	bufs []aggBuffer // indexed by destination LP
	wins []aggWindow // likewise; nil under NoAggregation
	// nonEmpty counts the buffers holding events, so the per-destination
	// sweeps (FlushAll at every GVT token hop, Poll and NextDeadline at every
	// scheduling round) return at once when nothing is buffered — the usual
	// case, and what keeps a token round from costing O(LPs) per hop.
	nonEmpty int
	// sendCost is the running estimate (foldCost) of what one physical message
	// costs this LP as a sender: the duration of the Sender.Send call, where
	// an in-process run spins its CostModel, takes the destination's mailbox
	// lock or appends to a socket's out-buffer. Sampled under SAAW only, whose
	// window it bounds.
	sendCost time.Duration

	// GVT accounting (see internal/gvt): logical events are counted at the
	// moment they enter the aggregation layer and when they are decoded at
	// the receiver, so events parked in an unsent aggregate register as
	// in-transit and GVT can never slip past them.
	color uint8
	sent  [2]int64
	recv  [2]int64
	tmin  vtime.Time // min receive time of events sent under the current color

	// TraceFlush, when non-nil, observes every physical transmission: the
	// destination LP, the cause that closed the aggregate, and its event
	// and byte counts. TraceWindow observes SAAW window changes. Both are
	// called from the owning LP goroutine; set them before the run starts.
	TraceFlush  func(dst int, cause FlushCause, events, bytes int)
	TraceWindow func(dst int, oldW, newW time.Duration)

	// Compress, when non-nil, is applied to flushed event payloads; the
	// compressed form is used when it is smaller (Packet.Comp marks it) and
	// the wire is charged the compressed size. Decompress must invert it.
	// Set both before the run starts; the codec facet wires them.
	Compress   func(dst, src []byte) []byte
	Decompress func(src []byte) ([]byte, error)

	// Pool is where DecodeEvents draws its events from, with copied payloads,
	// so that drained packet buffers can be recycled onto Wires for reuse as
	// future aggregation buffers. An endpoint is built with a pool of its own;
	// an owner that recycles events (the Time Warp kernel) assigns the one it
	// recycles into.
	Pool *event.Pool

	// Wires is the free list of wire buffers: drained packet payloads and
	// flushed aggregates reclaimed after compression won. Buffers circulate
	// between LPs — a packet hands its backing array to the receiver — but
	// are only ever touched by the goroutine that currently owns them. An
	// endpoint is built with a list of its own; the Time Warp kernel assigns
	// its worker's, which every LP that worker runs then shares — what one of
	// them receives more than it sends, its neighbour sends more than it
	// receives, and lists that do not communicate drop buffers at one bound
	// while the next allocates new ones.
	Wires *[][]byte
	// spare is the transport's own payload free list when the endpoint sends
	// through a TCP: what Wires cannot hold goes there and what it lacks
	// comes from there, so Wires is the unlocked share of one reservoir. Over a
	// socket the buffers of a rank circulate — its senders' aggregates are
	// framed and recycled by the transport, its parser copies arrivals into
	// them, its receivers drain them — and one poll delivers several of the
	// peer's rounds to every LP here at once.
	spare *TCP
	// evScratch is the reusable decode slice handed out by DecodeEvents.
	// Its contents are only valid until the next DecodeEvents call.
	evScratch []*event.Event
}

// maxFreeWireBufs bounds a wire-buffer free list so a transient burst of
// packets cannot pin memory for the rest of the run. A list is shared by the
// LPs of a worker — eight of them on the benchmark's PHOLD, whose sixteen
// lists of 32 each held as many buffers in all as two of 256 do, and allocated
// ten times the wire bytes (0.6–0.8 MB a run against 0.06–0.14).
const maxFreeWireBufs = 256

// takeWire pops a recycled wire buffer (length 0, capacity warm) or returns
// nil, leaving allocation to append.
func (e *Endpoint) takeWire() []byte {
	free := *e.Wires
	if n := len(free); n > 0 {
		b := free[n-1]
		free[n-1] = nil
		*e.Wires = free[:n-1]
		return b[:0]
	}
	if e.spare != nil {
		return e.spare.takePayload()
	}
	return nil
}

// recycleWire returns a buffer the endpoint owns to the free list.
func (e *Endpoint) recycleWire(b []byte) {
	switch {
	case cap(b) == 0:
	case len(*e.Wires) < maxFreeWireBufs:
		*e.Wires = append(*e.Wires, b)
	case e.spare != nil:
		e.spare.recyclePayload(b)
	}
}

// minWireCompress is the payload size below which flush skips compression:
// op headers would eat the gain.
const minWireCompress = 64

// NewEndpoint attaches lp to the transport with the given aggregation
// configuration, accounting into st. lp must be hosted in this process. Its
// receive half (Recv) reads the transport's channels, so the transport must
// have no sink; benchmark/layers.go is the one caller left.
func NewEndpoint(tr Transport, lp int, cfg AggConfig, st *stats.Counters) *Endpoint {
	e := NewSendEndpoint(tr, tr.Peers().NumLPs, lp, cfg, st)
	e.rx = tr.Recv(lp)
	return e
}

// NewSendEndpoint is NewEndpoint over the sending half alone, for an owner
// that receives lp's packets some other way (the Time Warp kernel: its LPs
// read a mailbox, never a channel). Recv on the result returns nil.
func NewSendEndpoint(s Sender, numLPs, lp int, cfg AggConfig, st *stats.Counters) *Endpoint {
	cfg = cfg.withDefaults()
	e := &Endpoint{
		lp:    lp,
		tr:    s,
		cfg:   cfg,
		st:    st,
		bufs:  make([]aggBuffer, numLPs),
		tmin:  vtime.PosInf,
		Pool:  event.NewPool(),
		Wires: new([][]byte),
	}
	if cfg.Policy != NoAggregation {
		e.wins = make([]aggWindow, numLPs)
		for i := range e.wins {
			e.wins[i].window = cfg.Window
		}
	}
	e.spare, _ = s.(*TCP)
	return e
}

// Recv returns this LP's receive stream. Callers must route every events
// packet through DecodeEvents so the GVT color accounting stays balanced;
// there is no raw inbox accessor anymore.
func (e *Endpoint) Recv() <-chan Packet { return e.rx }

// Color returns the LP's current GVT color.
func (e *Endpoint) Color() uint8 { return e.color }

// FlipColor flushes all aggregation buffers (so every packet carries a
// uniform, pre-flip color) and switches to c, resetting the red minimum.
func (e *Endpoint) FlipColor(c uint8) {
	e.FlushAll(FlushIdle)
	e.color = c
	e.tmin = vtime.PosInf
}

// Counts returns the logical events sent and received under color c.
func (e *Endpoint) Counts(c uint8) (sent, recv int64) {
	return e.sent[c&1], e.recv[c&1]
}

// TMin returns the minimum receive time among events sent under the current
// color since the last flip (the "red message minimum" of the GVT protocol).
func (e *Endpoint) TMin() vtime.Time { return e.tmin }

// Send hands one event to the aggregation layer for delivery to dstLP.
// Urgent events (anti-messages) force the buffer out immediately so
// cancellation is never delayed behind an aggregation window.
func (e *Endpoint) Send(ev *event.Event, dstLP int, urgent bool) {
	e.sent[e.color]++
	e.tmin = vtime.Min(e.tmin, ev.RecvTime)
	e.st.EventMsgsSent++

	b := &e.bufs[dstLP]
	if b.count == 0 {
		e.nonEmpty++
		if e.wins != nil {
			// The age of an aggregate is read only where something can be
			// held; an unaggregated event leaves within this call.
			e.wins[dstLP].first = time.Now()
		}
		b.color = e.color
		if b.payload == nil {
			b.payload = e.takeWire()
		}
	}
	b.payload = ev.Encode(b.payload)
	b.count++
	if e.cfg.Policy == SAAW {
		e.wins[dstLP].spanCount++
	}

	switch {
	case urgent:
		e.flush(dstLP, FlushUrgent)
	case e.cfg.Policy == NoAggregation:
		e.flush(dstLP, FlushWindow)
	case b.count >= e.cfg.MaxEvents || len(b.payload) >= e.cfg.MaxBytes:
		e.flush(dstLP, FlushCapacity)
	}
}

// Poll flushes buffers whose aggregate age has reached the window. The LP
// calls it once per scheduling loop iteration; now is passed in so one clock
// read serves all destinations.
func (e *Endpoint) Poll(now time.Time) {
	if e.nonEmpty == 0 {
		return
	}
	for dst := range e.wins {
		if w := &e.wins[dst]; e.bufs[dst].count > 0 && now.Sub(w.first) >= w.window {
			e.flush(dst, FlushWindow)
		}
	}
}

// NextDeadline returns the earliest wall-clock instant at which a pending
// aggregate's window expires, so an idle LP can bound its wait. ok is false
// when no aggregate is pending.
func (e *Endpoint) NextDeadline() (t time.Time, ok bool) {
	if e.nonEmpty == 0 {
		return t, false
	}
	for dst := range e.wins {
		if e.bufs[dst].count == 0 {
			continue
		}
		d := e.wins[dst].first.Add(e.wins[dst].window)
		if !ok || d.Before(t) {
			t, ok = d, true
		}
	}
	return t, ok
}

// FlushAll transmits every non-empty buffer with the given cause.
func (e *Endpoint) FlushAll(cause FlushCause) {
	if e.nonEmpty == 0 {
		return
	}
	for dst := range e.bufs {
		if e.bufs[dst].count > 0 {
			e.flush(dst, cause)
		}
	}
}

func (e *Endpoint) flush(dst int, cause FlushCause) {
	b := &e.bufs[dst]
	if b.count == 0 {
		return
	}
	count, payload := b.count, b.payload

	comp := false
	if e.Compress != nil && len(payload) >= minWireCompress {
		if c := e.Compress(e.takeWire(), payload); len(c) < len(payload) {
			// The compressed form travels; the raw aggregate stays home
			// and is reclaimed at the end of this flush.
			payload, comp = c, true
		} else {
			e.recycleWire(c)
		}
	}

	e.st.PhysicalMsgsSent++
	e.st.WireRawBytes += int64(len(b.payload))
	e.st.BytesSent += int64(len(payload))
	if count > 1 {
		e.st.AggregatedEvents += int64(count)
	}
	switch cause {
	case FlushWindow:
		e.st.FlushWindow++
	case FlushCapacity:
		e.st.FlushCapacity++
	case FlushUrgent:
		e.st.FlushUrgent++
	case FlushIdle:
		e.st.FlushIdle++
	}
	if e.TraceFlush != nil {
		e.TraceFlush(dst, cause, count, len(payload))
	}

	var sendStart time.Time
	if e.cfg.Policy == SAAW {
		sendStart = time.Now()
	}
	e.tr.Send(dst, Packet{
		Kind:    PktEvents,
		From:    e.lp,
		Color:   b.color,
		Count:   count,
		Payload: payload,
		Comp:    comp,
	}, len(payload))

	if comp {
		e.recycleWire(b.payload) // only the compressed form travelled
	}
	b.payload = nil // the receiver owns the shipped slice now
	b.count = 0
	e.nonEmpty--
	if e.cfg.Policy == SAAW {
		// The paper's P component is "everyAggregate": adapt whenever an
		// aggregate goes out, whatever closed it. One clock read ends the
		// cost sample and dates the adaptation.
		now := time.Now()
		e.sendCost = foldCost(e.sendCost, now.Sub(sendStart))
		w := &e.wins[dst]
		old := w.window
		if w.adapt(now, e.sendCost) {
			e.st.WindowAdjustments++
			if e.TraceWindow != nil {
				e.TraceWindow(dst, old, w.window)
			}
		}
	}
}

// Window returns destination dst's current aggregation window (for tests and
// reports on SAAW convergence).
func (e *Endpoint) Window(dst int) time.Duration {
	if e.wins == nil {
		return e.cfg.Window
	}
	return e.wins[dst].window
}

// Buffered returns the number of events parked in unsent aggregation buffers
// across all destinations. The invariant auditor reads it after the LPs join
// to close the message-conservation ledger; during a run it is only
// meaningful to the owning LP goroutine.
func (e *Endpoint) Buffered() int64 {
	var n int64
	for i := range e.bufs {
		n += int64(e.bufs[i].count)
	}
	return n
}

// DecodeEvents unpacks an events packet, updating the receive-side GVT
// counters. The events come from Pool with copied payloads, the packet buffer
// is recycled, and the returned slice is endpoint-owned scratch valid only
// until the next call.
func (e *Endpoint) DecodeEvents(p Packet) ([]*event.Event, error) {
	buf := p.Payload
	if p.Comp {
		var err error
		if buf, err = e.Decompress(buf); err != nil {
			return nil, err
		}
	}
	full := buf
	evs := e.evScratch[:0]
	for len(buf) > 0 {
		ev, rest, err := e.Pool.DecodeInto(buf)
		if err != nil {
			e.evScratch = evs
			return nil, err
		}
		evs = append(evs, ev)
		buf = rest
	}
	e.evScratch = evs
	e.recv[p.Color&1] += int64(len(evs))
	// Every payload byte has been copied out; the wire buffers (both the
	// packet's and, for compressed packets, the inflated form) go back to
	// the free list.
	e.recycleWire(p.Payload)
	if p.Comp {
		e.recycleWire(full)
	}
	return evs, nil
}

// SendMigration ships a packed object to dst. minTime is the capsule's
// virtual-time floor — the minimum over the packed object's unprocessed
// events and unresolved lazy outputs. The capsule is counted as one logical
// message under the current GVT color with minTime folded into the red
// minimum, exactly as if it were an event at that time: a white capsule keeps
// the token's in-transit count positive until received, a red one keeps MMsg
// at or below its floor, so GVT can never pass the work the capsule carries.
// approxBytes sizes the transfer for the communication cost model.
func (e *Endpoint) SendMigration(dst int, capsule any, minTime vtime.Time, approxBytes int) {
	e.sent[e.color]++
	e.tmin = vtime.Min(e.tmin, minTime)
	e.tr.Send(dst, Packet{Kind: PktMigrate, From: e.lp, Color: e.color, Capsule: capsule}, approxBytes)
}

// ReceiveMigration books the arrival of a migration capsule under the color
// it was sent with, balancing SendMigration's in-transit accounting. The
// caller installs the capsule before contributing another local minimum, so
// the carried work is covered either by the transit count or by the
// receiver's minimum — never by neither.
func (e *Endpoint) ReceiveMigration(p Packet) {
	e.recv[p.Color&1]++
}

// SendToken forwards the GVT token to dst.
func (e *Endpoint) SendToken(dst int, t Token) {
	e.tr.Send(dst, Packet{Kind: PktToken, From: e.lp, Token: t}, controlBytes)
}

// BroadcastGVT announces a new GVT value to every other LP, with the
// optimism window it puts in force and the object moves it orders, marked
// final when it ends the run (see PktGVT). Every receiver gets the same moves
// slice.
func (e *Endpoint) BroadcastGVT(gvt, window vtime.Time, moves []partition.Move, final bool) {
	for dst := range e.bufs {
		if dst == e.lp {
			continue
		}
		e.tr.Send(dst, Packet{Kind: PktGVT, From: e.lp, GVT: gvt, Window: window, Moves: moves, Final: final}, controlBytes)
	}
}

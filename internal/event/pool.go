package event

// Pool is a free list of Event structs and their payload backing arrays.
// The Time Warp kernel keeps one pool per dispatcher worker, shared by the
// logical processes that worker owns; because every event an LP touches is
// created, routed, queued and reclaimed by the one worker running that LP,
// neither the pool nor an event's holder count needs locking.
//
// Recycling manually is only safe under a discipline. The rules the kernel
// follows, and that any new call site must preserve:
//
//   - An event has one or more holders, counted in the event itself: Get (and
//     Clone, Anti, DecodeInto, an event literal) yields an event with one
//     holder, Share adds one, Put releases one, and only the last release
//     clears and recycles the struct. Events are immutable once sent, so the
//     count is all the holders of one have to agree on.
//   - All holders of one event live on one LP. An LP is touched by one worker
//     at a time and moves between workers whole, so the count is never
//     contended. Nothing that crosses an LP boundary may carry a shared
//     pointer.
//   - There are exactly two sharing sites. An intra-LP send is one struct held
//     by its sender's output-queue record and by its receiver's input queue
//     (lpRun.routeRecorded), where a remote send leaves the struct with the
//     record and ships the wire encoding. And an output-queue record holds the
//     input event whose execution generated it (cancel.Manager.RecordSent), so
//     that event outlives its place in the input queue for as long as a record
//     is attributed to it.
//   - A delivered event is held by its object's input queue until it is
//     annihilated or fossil-collected; a stashed anti-message by the orphan
//     table; a message awaiting insertion by the LP's deferred list.
//   - Events crossing LPs travel as bytes: the sender keeps its struct, and
//     the receiving endpoint's pool materialises fresh events on decode. The
//     one thing that leaves an LP with its queues is a migrating object, and
//     migration first makes everything the object reaches private: each event
//     with another holder is replaced by one Clone, all of the object's
//     references are repointed to it, and each releases the original.
//   - Holds end at annihilation (both members of a positive/anti pair are
//     released), fossil collection at GVT (processed events, output-queue
//     records with their generation stamps, stale orphans), cancellation (a
//     record that sent its anti-message, or expired off the lazy list) and
//     anti-message transmission (an anti routed to a remote LP dies once
//     encoded).
//   - Anything that must outlive an event without holding it keeps a by-value
//     Key() copy, never the pointer. The audit layer's per-object cursors work
//     this way.
//
// All methods are safe on a nil *Pool and fall back to plain allocation: a
// nil pool neither counts holders nor recycles, so optional layers (the
// conservative and sequential kernels, tests) run unpooled and leave every
// lifetime to the garbage collector.
//
// A Pool is padded to 64 bytes, a cache line, and Go's allocator starts
// objects of that size on 64-byte boundaries, so each worker's pool has a
// line of its own. Every Get and Put writes the pool, each worker's from its
// own core; two pools on one line would trade it between the cores' caches
// at every event.
type Pool struct {
	free   []*Event
	allocs int64
	reuses int64
	_      [24]byte // to 64 bytes (TestPoolLineSize)
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed event, reusing a recycled one when available. The
// returned event may carry a retained zero-length payload backing array for
// SetPayload to grow into.
func (p *Pool) Get() *Event {
	if p == nil {
		return &Event{}
	}
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reuses++
		return e
	}
	p.allocs++
	return &Event{}
}

// Share adds a holder to e and returns it: the caller may now keep the
// pointer beside whoever held it already, and each of them ends its hold with
// Put. See the rules above for where the kernel may do this.
func (p *Pool) Share(e *Event) *Event {
	if p != nil {
		e.shares++
	}
	return e
}

// Put releases the caller's hold on e, which it must not touch afterwards.
// The last holder's release recycles e: payload backing allocated by this
// pool layer is retained for reuse; a payload aliasing foreign memory is
// dropped. Safe on nil p (the event is left to the garbage collector) and
// nil e.
func (p *Pool) Put(e *Event) {
	if p == nil || e == nil {
		return
	}
	if e.shares > 0 {
		e.shares--
		return
	}
	buf, pooled := e.Payload, e.pooledBuf
	*e = Event{}
	if pooled {
		e.Payload = buf[:0]
		e.pooledBuf = true
	}
	p.free = append(p.free, e)
}

// SetPayload copies src into e's payload, reusing e's pool-owned backing
// array when it has one and allocating a pool-owned one otherwise. It never
// writes into foreign backing. After the call e's payload is independent of
// src, so callers may reuse src immediately.
func (p *Pool) SetPayload(e *Event, src []byte) {
	if !e.pooledBuf {
		e.Payload = nil
	}
	if len(src) == 0 {
		if e.Payload != nil {
			e.Payload = e.Payload[:0]
		}
		return
	}
	e.Payload = append(e.Payload[:0], src...)
	e.pooledBuf = true
}

// Clone returns a pooled copy of src with an independent payload and one
// holder, whatever src's count: the private copy migration (and tests) take
// of an event others hold.
func (p *Pool) Clone(src *Event) *Event {
	e := p.Get()
	buf, pooled := e.Payload, e.pooledBuf
	*e = *src
	e.shares = 0
	e.Payload, e.pooledBuf = buf, pooled
	p.SetPayload(e, src.Payload)
	return e
}

// Anti returns a pooled anti-message cancelling src, equivalent to
// src.Anti() but drawing from the pool.
func (p *Pool) Anti(src *Event) *Event {
	e := p.Get()
	e.SendTime = src.SendTime
	e.RecvTime = src.RecvTime
	e.Sender = src.Sender
	e.Receiver = src.Receiver
	e.ID = src.ID
	e.SendSeq = src.SendSeq
	e.Sign = Negative
	e.Kind = src.Kind
	if e.Payload != nil {
		e.Payload = e.Payload[:0]
	}
	return e
}

// DecodeInto reads one event from the front of buf like Decode, but draws
// the event from the pool and copies the payload into pool-owned backing
// instead of aliasing buf — so the wire buffer can be recycled as soon as
// the packet is drained.
func (p *Pool) DecodeInto(buf []byte) (*Event, []byte, error) {
	e := p.Get()
	n, err := decodeHeader(e, buf)
	if err != nil {
		p.Put(e)
		return nil, buf, err
	}
	p.SetPayload(e, buf[headerSize:headerSize+n])
	return e, buf[headerSize+n:], nil
}

// Stats returns the number of Get calls served by fresh allocation and by
// the free list, respectively.
func (p *Pool) Stats() (allocs, reuses int64) {
	if p == nil {
		return 0, 0
	}
	return p.allocs, p.reuses
}

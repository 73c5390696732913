package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/gvt"
	"gowarp/internal/partition"
	"gowarp/internal/pq"
	"gowarp/internal/route"
	"gowarp/internal/statesave"
	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// shared holds the cross-LP tables. rt's entries move when objects migrate
// (single atomic words; see internal/route). objs is written only during
// construction and the end-of-run sweep; during the run each LP touches only
// the objects it hosts.
type shared struct {
	rt   *route.Table // ObjectID -> hosting LP, migration-aware
	objs []*simObject // ObjectID -> runtime
	// board collects the object-pair message counts the load balancer reads;
	// nil unless Config.Balance is dynamic.
	board *stats.LoadBoard

	// The pad rounds shared up to 64 bytes, so that its one allocation comes
	// from Go's 64-byte size class and has a cache line to itself. Every
	// worker reads rt and objs on every route (hosted). While the optimism
	// window lived here too, an unpadded struct cost phold-pool's
	// speedup_vs_seq 3.09 and 3.22 against 3.25 and 3.32 padded (behind in 8
	// of 11 sizing runs), and a phold-lp run 0.459 s against 0.433 s (medians
	// of 16 alternating runs; EXPERIMENTS.md "One window"). The window has
	// since moved to the LPs; removing the pad would be its own measured
	// change.
	_ [24]byte
}

// lpRun is one logical process: a set of simulation objects (a range of its
// worker's schedule tree), a mailbox, a network endpoint and a GVT manager,
// all touched only by the dispatcher worker that owns the LP at the moment.
type lpRun struct {
	id   int
	cfg  *Config
	k    *shared
	objs []*simObject
	// sched is the owning worker's tree, whose slots from base are the objects.
	sched   *pq.ScheduleHeap
	base    int
	ep      *comm.Endpoint
	gvtMgr  *gvt.Manager
	st      stats.Counters
	running bool

	// d is the dispatcher hosting this LP. worker is the authoritative
	// LP→worker map entry, updated at handoff; senders consult it to wake the
	// right worker (a stale read wakes the previous owner, which is harmless —
	// the packet sits in the spillbox either way). target is what the last
	// remap decided, and loads is the LP's progress record as of each of its
	// last two GVT applications, newest first, which the controllers'
	// progressWindows read under loadMu. These and spill are all of an LP that
	// other goroutines touch.
	d      *dispatcher
	worker atomic.Int32
	target atomic.Int32
	loadMu sync.Mutex
	loads  [2]loadSample

	// spill is this LP's mailbox, the one place it reads packets from.
	// spillScratch is the drained batch from the previous round, reused so
	// steady-state draining allocates nothing.
	spill        spillbox
	spillScratch []comm.Packet

	// pool is this LP's event free list (see the ownership rules in package
	// event). Everything the LP creates, clones or decodes draws from it,
	// and annihilation, fossil collection and anti-message transmission
	// recycle into it. It belongs to the owning worker (shared by its other
	// LPs) and is rebound on adoption (bind).
	pool *event.Pool

	// host is what the cancellation managers of the hosted objects share (each
	// holds a pointer to it): this LP's anti-message emitter and counters, and
	// the owning worker's event pool.
	host cancel.Host
	// codecSwitched counts a checkpoint-codec switch into st: the hook of every
	// hosted object's state codec while tracing is off, made once so that
	// binding it allocates nothing.
	codecSwitched func(toDelta bool, ratio float64)

	// deferred holds intra-LP messages awaiting insertion; deferring them
	// to the main loop keeps rollback cascades from re-entering an object
	// mid-rollback. deferredSpare is the drained slice from the previous
	// round, kept so the two buffers ping-pong instead of reallocating.
	deferred      []*event.Event
	deferredSpare []*event.Event

	// numLPs is the run's LP count, across every rank.
	numLPs int

	// window is the optimism window in force (0 = unbounded) and horizon the
	// latest virtual time this LP may execute at: max(GVT, 0) + window, or
	// +inf without a window. newKernel seeds both from Config.Optimism.Window;
	// afterwards only applyGVT sets them, from the window LP 0 decided at that
	// GVT (see finishGVT).
	window  vtime.Time
	horizon vtime.Time

	// lvt is the receive time of the last event this LP executed (NegInf
	// before the first), which recordProgress writes into its record.
	lvt vtime.Time

	// tr is this LP's trace recorder (nil when tracing is disabled; all
	// recording methods are no-ops on nil). met and lastGVTWall drive the
	// live metrics published at each GVT application (met nil when off).
	tr          *telemetry.LPTrace
	met         *runMetrics
	lastGVTWall time.Time

	// au is this LP's invariant-audit recorder (nil when auditing is
	// disabled; hot paths guard on the pointer so the off path costs one
	// comparison).
	au *audit.LPAudit

	// lazy lists the hosted objects whose cancellation manager holds pending
	// (lazy or passive) entries: an object enters after a rollback parks
	// outputs there and leaves when a walk finds the pending list empty. hist
	// lists the hosted objects with history a GVT could reclaim (fossil floor
	// below +inf): an object enters when it executes and leaves when a fossil
	// collection empties it. GVT participation and application walk these two
	// lists, never objs, so their cost follows activity since the last GVT
	// rather than the hosted object count.
	lazy []*simObject
	hist []*simObject

	// outbound maps objects this LP migrated away to their destination, for
	// the window where the routing table still names this LP (the table
	// flips only after the destination installs the capsule). Entries are
	// deleted if the object ever migrates back here. See hosted.
	outbound map[event.ObjectID]int

	// edges counts the messages this LP sent to objects of other LPs, per
	// object pair (stats.EdgeKey), since its last GVT application, which
	// moves them to the board; bal is the balancing controller (LP 0 only).
	// Both are nil unless Config.Balance is dynamic, so static runs pay one
	// pointer comparison.
	edges map[uint64]int64
	bal   *balancer

	// opt is the adaptive optimism controller (LP 0 only; nil unless
	// Config.Optimism selects the adaptive mode).
	opt *optController

	// stash holds the end-of-run rank reports (PktReport) that reach LP 0 of
	// a distributed run's coordinator while it is still in its loop, for
	// gatherReports. By protocol that cannot happen — remote ranks report only
	// after applying the final GVT, which this LP broadcast before it applied
	// it and stopped — but stashing is cheaper than being wrong about that.
	stash []comm.Packet
}

// refresh re-keys o in the schedule tree after its input queue changed,
// carrying the deterministic (vt, seq, object-id) tie-break the oracle
// hashes depend on: at equal receive times the object whose head event has
// the lower send sequence (then the lower global id) executes first,
// independent of the slot order migrations happen to have produced. An
// object with nothing pending gets a fresh slot's key, which re-keys nothing.
func (lp *lpRun) refresh(o *simObject) {
	if e := o.head(); e != nil {
		lp.sched.UpdateKey(lp.base+int(o.slot), e.RecvTime, uint64(e.SendSeq), int32(o.id))
		return
	}
	lp.sched.UpdateKey(lp.base+int(o.slot), vtime.PosInf, 0, 0)
}

// noteEdge counts ev, sent to another LP, into the balancer's
// communication-affinity matrix. Messages between two objects of one LP are
// not counted: the balancer's transfer function weighs a candidate by its
// traffic to the destination LP, so only cross-LP pairs are ever read.
func (lp *lpRun) noteEdge(ev *event.Event) {
	if lp.edges != nil {
		lp.edges[stats.EdgeKey(int32(ev.Sender), int32(ev.Receiver))]++
	}
}

// hosted returns the runtime of object id when this LP hosts it, nil when the
// object lives elsewhere. It is this LP's authoritative view of what it
// hosts, consulted on every route and delivery, so a stale routing-table
// entry can misdirect an event (which is then forwarded) but never misdeliver
// one: the table names this LP from the moment this LP installed the object —
// install flips the entry last, after deleting any outbound entry — until
// another LP installs it, and for the stretch in between where the object has
// been packed but not yet installed, outbound says so.
func (lp *lpRun) hosted(id event.ObjectID) *simObject {
	if lp.k.rt.Owner(int(id)) != lp.id {
		return nil
	}
	if len(lp.outbound) > 0 {
		if _, gone := lp.outbound[id]; gone {
			return nil
		}
	}
	return lp.k.objs[id]
}

// routeRecorded delivers an output event that its sender's cancellation
// manager keeps (the output-queue record). A receiver hosted here shares the
// struct — the input queue becomes its second holder (see the rules in
// package event) — and a remote receiver gets the wire encoding; either way
// the caller's pointer remains valid after the call. Urgent messages flush
// the aggregation buffer immediately. An object this LP is about to migrate
// still receives intra-LP sends until the capsule is packed.
func (lp *lpRun) routeRecorded(ev *event.Event, urgent bool) {
	if lp.hosted(ev.Receiver) != nil {
		if lp.au != nil {
			lp.au.Route(ev, false)
		}
		lp.deferred = append(lp.deferred, lp.pool.Share(ev))
		lp.st.IntraLPMsgs++
		return
	}
	if lp.au != nil {
		lp.au.Route(ev, true)
	}
	lp.noteEdge(ev)
	lp.ep.Send(ev, lp.owner(ev.Receiver), urgent)
}

// routeOwned delivers an event the caller owns outright (anti-messages and
// forwards, which have no output-queue record). A local receiver takes
// ownership of the pointer itself; a remote send transfers ownership to the
// wire bytes, so the struct is recycled as soon as it is encoded.
func (lp *lpRun) routeOwned(ev *event.Event, urgent bool) {
	if lp.hosted(ev.Receiver) != nil {
		if lp.au != nil {
			lp.au.Route(ev, false)
		}
		lp.deferred = append(lp.deferred, ev)
		lp.st.IntraLPMsgs++
		return
	}
	if lp.au != nil {
		lp.au.Route(ev, true)
	}
	lp.noteEdge(ev)
	lp.ep.Send(ev, lp.owner(ev.Receiver), urgent)
	lp.pool.Put(ev)
}

// owner resolves the LP to address for an object this LP does not host. The
// shared routing table answers except during the in-flight window of a
// migration this LP initiated, when the table still names this LP and the
// outbound hint names the capsule's destination.
func (lp *lpRun) owner(id event.ObjectID) int {
	dst := lp.k.rt.Owner(int(id))
	if dst != lp.id {
		return dst
	}
	if to, ok := lp.outbound[id]; ok {
		return to
	}
	panic(fmt.Sprintf("core: LP %d: routing table names this LP for object %d, but it is neither hosted nor in flight", lp.id, id))
}

// deliver hands an arriving event to its target object. If the object has
// migrated away, the event is forwarded to the current owner: per-sender FIFO
// channels guarantee the capsule left before any event we could be holding,
// so the routing table (or our own outbound hint) already knows a newer home.
func (lp *lpRun) deliver(ev *event.Event) {
	if o := lp.hosted(ev.Receiver); o != nil {
		o.deliver(ev)
		return
	}
	if lp.au != nil {
		lp.au.Forward(ev)
	}
	lp.st.ForwardedMsgs++
	lp.ep.Send(ev, lp.owner(ev.Receiver), ev.IsAnti())
	lp.pool.Put(ev)
}

// emitAnti is the cancellation managers' transmit hook (host.Emit); the
// anti-message arrives pool-owned and routeOwned disposes of it.
func (lp *lpRun) emitAnti(anti *event.Event) { lp.routeOwned(anti, true) }

// drainDeferred inserts queued intra-LP messages until none remain
// (insertions can trigger rollbacks that enqueue more). The drained and
// filling slices ping-pong so steady state appends into warm capacity.
func (lp *lpRun) drainDeferred() {
	for len(lp.deferred) > 0 {
		q := lp.deferred
		lp.deferred = lp.deferredSpare[:0]
		for i, ev := range q {
			q[i] = nil
			lp.deliver(ev)
		}
		lp.deferredSpare = q[:0]
	}
}

// drainInbox handles every packet queued in the spillbox, without blocking.
// Batches swap out under the lock and the drained slice is reused next
// round. Handling stops when a packet stops the LP — the remainder goes back
// to the front of the queue for the end-of-run sweep.
func (lp *lpRun) drainInbox() {
	b := &lp.spill
	for lp.running {
		if b.n.Load() == 0 {
			return
		}
		b.mu.Lock()
		if len(b.q) == 0 {
			b.mu.Unlock()
			return
		}
		q := b.q
		b.q = lp.spillScratch[:0]
		b.n.Store(0)
		b.mu.Unlock()
		for i := range q {
			p := q[i]
			q[i] = comm.Packet{}
			lp.handlePacket(p)
			if !lp.running && i+1 < len(q) {
				rest := append([]comm.Packet(nil), q[i+1:]...)
				b.mu.Lock()
				b.q = append(rest, b.q...)
				b.n.Store(int32(len(b.q)))
				b.mu.Unlock()
				break
			}
		}
		lp.spillScratch = q[:0]
	}
}

func (lp *lpRun) handlePacket(p comm.Packet) {
	switch p.Kind {
	case comm.PktEvents:
		evs, err := lp.ep.DecodeEvents(p)
		if err != nil {
			panic(fmt.Sprintf("core: LP %d: corrupt events packet from LP %d: %v", lp.id, p.From, err))
		}
		if lp.au != nil {
			lp.au.Packet(len(evs), p.Count)
		}
		for _, ev := range evs {
			lp.deliver(ev)
		}
	case comm.PktMigrate:
		lp.ep.ReceiveMigration(p)
		lp.install(p)
	case comm.PktToken:
		lp.drainDeferred()
		if g, found := lp.gvtMgr.OnToken(p.Token, lp.localMin()); found {
			lp.finishGVT(g)
		}
	case comm.PktGVT:
		lp.gvtMgr.Apply(p.GVT)
		lp.applyGVT(p.GVT, p.Window, p.Moves)
		if p.Final {
			lp.stop()
		}
	case comm.PktReport:
		lp.stash = append(lp.stash, p)
	}
}

// stop ends this LP's part of the run, its objects out of its worker's pick;
// the last hosted LP to stop retires the workers. An LP stops when it applies
// the final GVT; a stop packet never reaches it (dispatcher.deliver).
func (lp *lpRun) stop() {
	lp.running = false
	for _, o := range lp.objs {
		lp.sched.UpdateKey(lp.base+int(o.slot), vtime.PosInf, 0, 0)
	}
	if lp.d.live.Add(-1) == 0 {
		lp.d.release()
	}
}

// localMin computes this LP's contribution to GVT: the minimum over
// unprocessed events, queued intra-LP messages, and unsent lazy
// anti-messages. Objects with no executable work first drain their stale
// lazy-pending outputs so idle LPs never hold GVT back. The unprocessed
// minimum is the LP's range's — refresh keeps every object's key at its
// nextTime() — and only objects on the lazy list can hold an unsent anti.
func (lp *lpRun) localMin() vtime.Time {
	lp.drainLazy()
	lp.drainDeferred()
	_, min := lp.sched.MinIn(lp.base, lp.base+len(lp.objs))
	for _, o := range lp.lazy {
		min = vtime.Min(min, o.out.MinPending())
	}
	if lp.au != nil {
		lp.auditLocalMin(min)
	}
	return min
}

// drainLazy gives every object with pending lazy outputs the chance to drain
// them (see drainStale) and drops the objects with none left from the list.
func (lp *lpRun) drainLazy() {
	lp.lazy = keepObjects(lp.lazy, func(o *simObject) bool {
		o.drainStale()
		o.inLazy = o.out.PendingLen() > 0
		return o.inLazy
	})
}

// keepObjects filters list in place down to the objects keep accepts,
// zeroing the vacated tail so dropped objects are not pinned.
func keepObjects(list []*simObject, keep func(*simObject) bool) []*simObject {
	kept := list[:0]
	for _, o := range list {
		if keep(o) {
			kept = append(kept, o)
		}
	}
	clear(list[len(kept):])
	return kept
}

// maybeGVT lets LP 0 start a GVT computation; force is set when the LP has
// gone idle, so termination is detected without waiting a full period.
func (lp *lpRun) maybeGVT(force bool) {
	if !lp.gvtMgr.Due(force) {
		return // most calls: spare the minimum when nothing would start
	}
	if g, found := lp.gvtMgr.MaybeInitiate(lp.localMin(), force); found {
		lp.finishGVT(g) // single-LP short circuit
	}
}

// finishGVT runs on the initiator when a computation completes. LP 0's
// controllers decide first, at the cut they read (LP 0's newest progress
// record, the board with LP 0's own edge counts on it); the value and their
// decisions then go to every LP in one packet, which LP 0 applies too. A GVT
// strictly past the end time (or +inf: the model has drained) is the final
// one, and the broadcast says so; every LP stops once it has applied it.
// Strictness matters: GVT equal to the end time still admits an in-flight
// event with receive time exactly EndTime, which must execute before the
// simulation may stop.
func (lp *lpRun) finishGVT(g vtime.Time) {
	w, moves := lp.window, []partition.Move(nil)
	if lp.bal != nil {
		lp.publishEdges()
		moves = lp.runBalancer()
	}
	if lp.opt != nil {
		w = lp.runOptimism()
	}
	final := g.After(lp.cfg.EndTime)
	lp.ep.BroadcastGVT(g, w, moves, final)
	lp.applyGVT(g, w, moves)
	if final {
		lp.stop()
	}
}

// applyGVT applies what LP 0 broadcast at GVT g: it puts window w in force,
// fossil-collects the hosted objects whose history g can shrink, migrates
// the objects moves assigns from this LP, runs what fires on the kernel's
// control period, and records the LP's progress as of g.
func (lp *lpRun) applyGVT(g, w vtime.Time, moves []partition.Move) {
	lp.window, lp.horizon = w, horizonAt(g, w)
	if lp.au != nil {
		lp.au.ApplyGVT(g)
		lp.auditHolders()
		lp.auditFossil(g)
	}
	lp.hist = keepObjects(lp.hist, func(o *simObject) bool {
		if o.fossilFloor.Before(g) {
			o.fossilCollect(g)
		}
		o.inHist = o.fossilFloor != vtime.PosInf
		return o.inHist
	})
	lp.publishEdges()
	if len(moves) > 0 {
		lp.migrateMoves(moves)
	}
	// The remap and the roughness sample run before this LP records g: their
	// windows cut at the GVT before g, which every peer has had a period to
	// apply.
	if lp == lp.d.lps[0] {
		lp.d.maybeRemap()
		lp.d.rough.sample(lp.loads[0].at)
	}
	lp.recordProgress(g)
	if lp.met != nil {
		lp.publishMetrics(g)
	}
}

// horizonAt is the latest virtual time an LP may execute at under window w
// at GVT g: unbounded without a window, otherwise g (floored at zero, since
// GVT starts at -inf) plus the window. Blocked LPs idle, which forces GVT
// computations, whose broadcasts advance the horizon and wake them.
func horizonAt(g, w vtime.Time) vtime.Time {
	if w <= 0 {
		return vtime.PosInf
	}
	return vtime.Max(g, vtime.Zero).Add(w)
}

// publishEdges moves the edge counts this LP gathered since it last
// published to the balancer's board.
func (lp *lpRun) publishEdges() {
	if len(lp.edges) > 0 {
		lp.k.board.Publish(lp.edges)
		clear(lp.edges)
	}
}

// initObjects builds each hosted object's initial state, runs Init, and
// takes the initial checkpoint (after Init, so Init is never re-executed by
// rollback).
func (lp *lpRun) initObjects() {
	for _, o := range lp.objs {
		o.state = o.obj.InitialState()
		o.obj.Init((*execContext)(o), o.state)
		meta := statesave.Snapshot{
			SendVT:  o.sendVT,
			SendSeq: o.sendSeq,
			Hash:    o.au.HashOf(o.state),
		}
		// The codec is the one the LP's block made for this queue (nil when
		// the facet is off); Init drops it if the state cannot be encoded, so
		// the hooks are bound again afterwards.
		o.stateQ.Init(o.state, meta, o.stateQ.Codec())
		bindObjectHooks(lp, o)
		lp.refresh(o)
		lp.enlist(o) // Init may have sent: its output records are history
	}
}

// pump drains communication and keeps the control machinery ticking: the
// spillbox, deferred intra-LP messages, GVT initiation on LP 0, and the
// endpoint's aggregation deadlines.
func (lp *lpRun) pump(now time.Time) {
	lp.drainInbox()
	if !lp.running {
		return
	}
	lp.drainDeferred()
	if lp.id == 0 {
		lp.maybeGVT(false)
	}
	lp.ep.Poll(now)
}

// runnable reports whether an event received at t lies within the end time
// and the optimism horizon.
func (lp *lpRun) runnable(t vtime.Time) bool {
	return !t.After(lp.cfg.EndTime) && !t.After(lp.horizon)
}

// exec executes o's next event, which the caller has found runnable. What the event sent to objects of this LP is delivered before
// returning, so the worker's next pick sees it and no straggler is
// manufactured inside one LP.
func (lp *lpRun) exec(o *simObject) {
	o.executeNext()
	lp.lvt = o.lvt
	lp.refresh(o)
	lp.drainDeferred()
}

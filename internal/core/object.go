package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/pq"
	"gowarp/internal/spin"
	"gowarp/internal/statesave"
	"gowarp/internal/vtime"
)

// simObject is the kernel-side runtime of one simulation object: the
// physical process plus its input, output and state queues (Figure 1) and
// their controllers, held by value so that what one event touches lies
// together — and only that: what a controller keeps besides is behind a
// pointer of its own, nil under a configuration that does not run it. An
// object is a slot in the block its first LP made for all its objects
// (newKernel), owned by exactly one logical process at a time and touched only
// by the worker running that LP; it moves between LPs as a pointer and is never
// copied (the cancellation manager points at the selector beside it).
type simObject struct {
	id   event.ObjectID
	slot int32 // index within the owning LP; its schedule-tree slot is the LP's base plus this
	obj  model.Object
	lp   *lpRun

	// state is the working copy the object mutates; lvt is the receive time
	// of the most recently executed event.
	state model.State
	lvt   vtime.Time

	// cur is the event being executed (nil outside Execute, and during Init):
	// what the object, as its model's model.Context (execContext), answers
	// Now from and stamps its sends with.
	cur *event.Event

	// in is the input queue of Figure 1: every positive event the object
	// holds, processed and unprocessed, in event.Compare order. in[:next] has
	// been executed and is retained for rollback until fossil-collected;
	// in[next:] is the unprocessed part. Executing the head is next++, a
	// rollback's requeue is next = k, and there is no index by identity: an
	// anti-message finds its positive where Compare puts it (see find).
	// processedBase is the absolute index of in[0]; committedAbs counts events
	// committed so far.
	in            []*event.Event
	next          int
	processedBase int64
	committedAbs  int64

	// stateQ is the state queue (zero until initObjects has the initial
	// state), ckpt its checkpoint-interval controller, out the output queue
	// and sel the cancellation-strategy selector out consults.
	stateQ statesave.Queue
	ckpt   statesave.Checkpointer
	out    cancel.Manager
	sel    cancel.Selector

	// orphans holds anti-messages that arrived before their positive
	// counterpart (impossible over the FIFO substrate, kept as defense in
	// depth for alternative transports). Allocated on the first orphan.
	orphans map[pq.Identity]*event.Event

	// fossilFloor bounds what fossil collection can reclaim here:
	// fossilCollect(g) changes nothing while g <= fossilFloor (vtime.NegInf
	// forces a visit at any GVT, vtime.PosInf means no history to shrink). It
	// may sit below the exact bound — execution only ever lowers it, rollback
	// leaves it alone — but never above, and fossilCollect recomputes it.
	// inHist marks membership of lp.hist, the objects whose floor is not
	// +inf; inLazy marks membership of lp.lazy.
	fossilFloor vtime.Time

	// seq numbers outgoing events; it is deliberately not part of the
	// saved state — identities need uniqueness, not reproducibility.
	seq uint64
	// sendVT and sendSeq implement the reproducible per-send-time sequence
	// that orders same-timestamp events; they are checkpointed with state
	// and restored on rollback so re-executed sends reproduce their keys.
	sendVT  vtime.Time
	sendSeq uint32

	inHist bool
	inLazy bool
	// coasting suppresses output transmission during coast forward.
	coasting bool

	rollbacks int64
	// execs counts executions under dynamic balance until the balancer takes
	// them (swaps the count to zero) from LP 0's worker; it moves with the
	// object.
	execs atomic.Int64

	// au is this object's invariant-audit recorder (nil when auditing is
	// disabled).
	au *audit.ObjectAudit
}

// absProcessed returns the absolute index one past the last processed event.
func (o *simObject) absProcessed() int64 {
	return o.processedBase + int64(o.next)
}

// head returns the next unprocessed event, or nil when idle.
func (o *simObject) head() *event.Event {
	if o.next < len(o.in) {
		return o.in[o.next]
	}
	return nil
}

// nextTime returns the receive time of the next unprocessed event, or
// vtime.PosInf when idle.
func (o *simObject) nextTime() vtime.Time {
	if e := o.head(); e != nil {
		return e.RecvTime
	}
	return vtime.PosInf
}

// placeScan is how many tail slots place compares one by one before it
// bisects: arrivals land at or near the end of a queue that is a handful of
// events deep almost always, and a straggler or an insert into a deep queue
// costs a binary search on top.
const placeScan = 8

// place returns the index at which ev belongs in the input queue: the number
// of held events ordered before it. Compare is a total order and no event is
// held twice, so the place is unique.
func (o *simObject) place(ev *event.Event) int {
	in := o.in
	hi := len(in)
	for n := 0; hi > 0 && n < placeScan; n++ {
		if event.Compare(in[hi-1], ev) < 0 {
			return hi
		}
		hi--
	}
	lo := 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if event.Compare(in[mid], ev) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find locates the positive counterpart of anti: at is the anti's place, and
// i the index of the event it annihilates, -1 when the queue does not hold
// it. Compare puts an anti-message directly before its positive, behind at
// most a transient replacement that carries the same stable key under another
// ID, so the run of events sharing the anti's key is all there is to look at.
func (o *simObject) find(anti *event.Event) (at, i int) {
	at = o.place(anti)
	for i = at; i < len(o.in); i++ {
		e := o.in[i]
		if e.RecvTime != anti.RecvTime || e.Sender != anti.Sender ||
			e.SendTime != anti.SendTime || e.SendSeq != anti.SendSeq {
			break
		}
		if e.SameIdentity(anti) {
			return at, i
		}
	}
	return at, -1
}

// firstInput is how many events the slice of its LP's block that an input queue
// starts on holds. An object that holds one event on average holds two or more
// a quarter of the time and five or more hardly ever.
const firstInput = 4

// insert puts ev into the input queue at its place.
func (o *simObject) insert(at int, ev *event.Event) {
	o.in = append(o.in, nil)
	copy(o.in[at+1:], o.in[at:])
	o.in[at] = ev
}

// removeAt takes in[i] out of the input queue and recycles it.
func (o *simObject) removeAt(i int) {
	o.lp.pool.Put(o.in[i])
	last := len(o.in) - 1
	copy(o.in[i:], o.in[i+1:])
	o.in[last] = nil
	o.in = o.in[:last]
}

// dropProcessed recycles the first n events of the input queue, all of them
// processed, and closes the gap.
func (o *simObject) dropProcessed(n int) {
	for _, e := range o.in[:n] {
		o.lp.pool.Put(e)
	}
	kept := copy(o.in, o.in[n:])
	clear(o.in[kept:])
	o.in = o.in[:kept]
	o.next -= n
	o.processedBase += int64(n)
}

// remapEvents replaces every event the object holds — input queue, orphan
// table, and the output queue's records with their generation stamps — by f
// of it, one call per reference. Migration repoints shared events to private
// clones through it; the holder audit counts references with an f that
// returns its argument.
func (o *simObject) remapEvents(f func(*event.Event) *event.Event) {
	for i, e := range o.in {
		o.in[i] = f(e)
	}
	for id, a := range o.orphans {
		o.orphans[id] = f(a)
	}
	o.out.Remap(f)
}

// deliver inserts an arriving message (positive or anti) into the object's
// input queue, rolling back first if the message lands in the processed
// past.
func (o *simObject) deliver(ev *event.Event) {
	if o.au != nil {
		o.au.Deliver(ev)
	}
	if ev.IsAnti() {
		o.deliverAnti(ev)
		o.lp.refresh(o)
		return
	}
	if len(o.orphans) > 0 {
		id := pq.IdentityOf(ev)
		if a, ok := o.orphans[id]; ok {
			// The anti-message overtook us; the pair annihilates on arrival.
			delete(o.orphans, id)
			o.lp.pool.Put(a)
			o.lp.pool.Put(ev)
			return
		}
	}
	at := o.place(ev)
	if at < o.next {
		o.rollback(ev, false, at)
	}
	o.insert(at, ev)
	o.lp.refresh(o)
}

func (o *simObject) deliverAnti(anti *event.Event) {
	at, i := o.find(anti)
	if i < 0 {
		if o.orphans == nil {
			o.orphans = make(map[pq.Identity]*event.Event)
		}
		o.orphans[pq.IdentityOf(anti)] = anti
		o.noteHistory(vtime.NegInf)
		return
	}
	if i < o.next {
		// The positive was already executed: roll back past it, which leaves
		// it where it is, unprocessed, then annihilate.
		o.rollback(anti, true, at)
	}
	// Both members of the pair die.
	o.removeAt(i)
	o.lp.pool.Put(anti)
}

// noteHistory lowers the fossil floor to t and enters the object on its LP's
// history list, so the next GVT application at or above t visits it.
func (o *simObject) noteHistory(t vtime.Time) {
	if t.Before(o.fossilFloor) {
		o.fossilFloor = t
	}
	if !o.inHist {
		o.inHist = true
		o.lp.hist = append(o.lp.hist, o)
	}
}

// noteLazy enters the object on its LP's lazy list when its cancellation
// manager holds pending entries; OnRollback is their only producer.
func (o *simObject) noteLazy() {
	if !o.inLazy && o.out.PendingLen() > 0 {
		o.inLazy = true
		o.lp.lazy = append(o.lp.lazy, o)
	}
}

// exactFossilFloor derives the fossil floor from the queues: the receive time
// of the first uncommitted processed event (the commit loop), the time of
// the second-oldest snapshot (state-queue reclamation, which alone moves
// OldestMark and so alone lets processed events go), and the generating time
// of the oldest output record. Any orphan forces a visit.
func (o *simObject) exactFossilFloor() vtime.Time {
	if len(o.orphans) > 0 {
		return vtime.NegInf
	}
	f := vtime.Min(o.stateQ.FossilFloor(), o.out.FossilFloor())
	if o.committedAbs < o.absProcessed() {
		f = vtime.Min(f, o.in[o.committedAbs-o.processedBase].RecvTime)
	}
	return f
}

// rollback undoes optimistic work past the straggler, whose place in the
// input queue is at (below next): cancel outputs under the strategy in force,
// move the cursor back so the events ordered after the straggler are
// unprocessed again, restore the newest state strictly before the straggler's
// receive time, and coast forward (re-execute with outputs suppressed) up to
// the straggler.
func (o *simObject) rollback(straggler *event.Event, isAnti bool, at int) {
	lp := o.lp
	lp.st.Rollbacks++
	o.rollbacks++
	if isAnti {
		lp.st.AntiStragglers++
	} else {
		lp.st.Stragglers++
	}

	if o.au != nil {
		o.au.RollbackStart(straggler)
	}
	// Anti-messages emitted below (aggressive cancellation inside
	// OnRollback) are charged to this episode by delta; lazy cancellation
	// defers its antis to later forward execution, so a lazy episode
	// legitimately reports zero here.
	antiBase := lp.st.AntiMsgsSent
	o.out.OnRollback(straggler)
	o.noteLazy()

	rolled := int64(o.next - at)
	o.next = at
	lp.st.EventsRolledBack += rolled
	lp.st.RollbackLength += rolled

	// Restore the newest snapshot strictly before the straggler into the
	// working state, which is exclusively object-owned (snapshots are deep
	// copies or encodings) and so is refilled in place where its type allows.
	snap := o.stateQ.RestoreInto(straggler.RecvTime, o.state)
	o.state = snap.State
	if o.au != nil {
		o.au.Restore(straggler, snap)
	}
	o.sendVT = snap.SendVT
	o.sendSeq = snap.SendSeq

	// Coast forward through retained processed events taken after the
	// snapshot; their outputs were already (correctly) sent, so
	// transmission is suppressed.
	start := int(snap.Mark - o.processedBase)
	if start < 0 || start > o.next {
		panic(fmt.Sprintf("core: object %d: snapshot mark %d outside processed window [%d,%d)",
			o.id, snap.Mark, o.processedBase, o.absProcessed()))
	}
	var coasted int64
	var coastDur time.Duration
	if coast := o.in[start:o.next]; len(coast) > 0 {
		t0 := time.Now()
		o.coasting = true
		for _, e := range coast {
			spin.Spin(lp.cfg.EventCost)
			o.execApp(e)
		}
		o.coasting = false
		coastDur = time.Since(t0)
		coasted = int64(len(coast))
		o.ckpt.RecordCoastCost(coastDur)
		lp.st.CoastForwardTime += coastDur
		lp.st.CoastForwardEvents += coasted
	}
	o.ckpt.OnRestore(o.next - start)

	lp.tr.Rollback(int32(o.id), int32(straggler.Sender), int64(straggler.SendTime), int64(straggler.RecvTime),
		isAnti, rolled, coasted, lp.st.AntiMsgsSent-antiBase, coastDur)
	lp.d.rough.rollback(rolled)

	var last *event.Event
	if o.next > 0 {
		last = o.in[o.next-1]
		o.lvt = last.RecvTime
	} else {
		o.lvt = snap.Time
	}
	if o.au != nil {
		o.au.RollbackEnd(last)
	}
}

// executeNext executes the object's next event and moves the cursor past it,
// then runs the per-event bookkeeping: lazy-expiry, checkpointing and its
// controller.
func (o *simObject) executeNext() {
	lp := o.lp
	ev := o.head()
	if ev == nil {
		return
	}
	if o.au != nil {
		o.au.Execute(ev)
	}
	spin.Spin(lp.cfg.EventCost)
	o.execApp(ev)
	o.next++
	o.lvt = ev.RecvTime
	// Everything this execution adds to the history — the processed event, a
	// checkpoint at lvt, output records generated by ev — is reclaimable only
	// by a GVT above ev's receive time.
	o.noteHistory(ev.RecvTime)
	lp.st.EventsProcessed++
	if lp.edges != nil {
		o.execs.Add(1)
	}

	o.out.AfterExecute(ev)

	if o.ckpt.OnEventProcessed() {
		// The dynamic controller reads the cost of every save (it is half of
		// Ec). Under a periodic interval only the StateSaveTime counter would,
		// and a clock read costs more than cloning a small state: there one save
		// in saveTimedEvery is timed and stands for all of them.
		every := int64(saveTimedEvery)
		if o.ckpt.Mode() == statesave.Dynamic {
			every = 1
		}
		timed := lp.st.StatesSaved%every == 0
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		res := o.stateQ.Save(o.state, statesave.Snapshot{
			Time:    o.lvt,
			Mark:    o.absProcessed(),
			SendVT:  o.sendVT,
			SendSeq: o.sendSeq,
			Hash:    o.au.HashOf(o.state),
		})
		if timed {
			d := time.Duration(every) * time.Since(t0)
			o.ckpt.RecordSaveCost(d)
			lp.st.StateSaveTime += d
		}
		lp.st.StatesSaved++
		if s, ok := o.state.(interface{ StateBytes() int }); ok {
			lp.st.StateBytes += int64(s.StateBytes())
		}
		lp.st.CheckpointRawBytes += int64(res.RawBytes)
		lp.st.CheckpointBytes += int64(res.StoredBytes)
		if res.Delta {
			lp.st.DeltaCheckpoints++
		}
	}
}

// saveTimedEvery is how many checkpoints of a periodic configuration share one
// timed one (see executeNext): StateSaveTime is then an estimate, sixteen times
// the time of every sixteenth save an LP takes.
const saveTimedEvery = 16

// execApp invokes the model's handler for e against the working state.
func (o *simObject) execApp(e *event.Event) {
	o.cur = e
	o.obj.Execute((*execContext)(o), o.state, e)
	o.cur = nil
}

// drainStale resolves leftover lazy-pending outputs when the object has no
// executable work left: idle, only events beyond EndTime, or only events
// beyond the optimism horizon. The horizon case is a liveness requirement,
// not an optimization — an unsent lazy anti-message holds GVT down through
// MinPending, a held-down GVT pins the horizon, and a pinned horizon forbids
// the very execution that would resolve the output; with every LP's next
// event past the horizon the run would otherwise deadlock. See
// cancel.Manager.Drain for why early draining is safe.
func (o *simObject) drainStale() {
	if o.out.PendingLen() == 0 {
		return
	}
	next := o.nextTime()
	if next == vtime.PosInf || next.After(o.lp.cfg.EndTime) || next.After(o.lp.horizon) {
		o.out.Drain()
	}
}

// fossilCollect reclaims history below GVT: old snapshots, committed
// processed events no snapshot can coast from, output records, and stale
// orphans. Commit accounting happens here because an event is committed
// exactly when GVT passes its receive time.
func (o *simObject) fossilCollect(gvt vtime.Time) {
	lp := o.lp
	lp.st.FossilCollected += int64(o.stateQ.FossilCollect(gvt))
	if o.au != nil {
		o.au.FossilFloor(gvt, o.stateQ.OldestTime())
	}

	for o.committedAbs < o.absProcessed() {
		rel := o.committedAbs - o.processedBase
		if !o.in[rel].RecvTime.Before(gvt) {
			break
		}
		if o.au != nil {
			o.au.Commit(o.in[rel], gvt)
		}
		o.committedAbs++
		lp.st.EventsCommitted++
	}

	if drop := o.stateQ.OldestMark() - o.processedBase; drop > 0 {
		o.dropProcessed(int(drop))
		lp.st.FossilCollected += drop
	}

	lp.st.FossilCollected += int64(o.out.FossilCollect(gvt))

	if len(o.orphans) > 0 {
		for k, a := range o.orphans {
			if a.RecvTime.Before(gvt) {
				if o.au != nil {
					o.au.OrphanDropped(a)
				}
				delete(o.orphans, k)
				lp.pool.Put(a)
			}
		}
	}
	o.fossilFloor = o.exactFossilFloor()
}

// commitRemaining finalizes commit accounting at termination, when every
// processed event is known final.
func (o *simObject) commitRemaining() {
	for o.committedAbs < o.absProcessed() {
		if o.au != nil {
			// The bound is +inf: at termination everything is final, so
			// only the committed-order invariant remains to check.
			o.au.Commit(o.in[o.committedAbs-o.processedBase], vtime.PosInf)
		}
		o.committedAbs++
		o.lp.st.EventsCommitted++
	}
}

package core

import (
	"fmt"
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
// physical process plus its input, output and state queues (Figure 1).
// A simObject is owned by exactly one logical process and touched only by
// that LP's goroutine.
type simObject struct {
	id   event.ObjectID
	slot int // index within the owning LP, for the schedule heap
	obj  model.Object
	lp   *lpRun

	// state is the working copy the object mutates; lvt and lastExec track
	// the most recently executed event. lastExec normally points into
	// processed; when fossil collection reclaims that event the cursor is
	// re-pointed at lastExecStore, a by-value copy that preserves the
	// straggler comparison without pinning the recycled event.
	state         model.State
	lvt           vtime.Time
	lastExec      *event.Event
	lastExecStore event.Event

	// ectx is the reusable model.Context for this object's Init/Execute
	// calls. Keeping it a field (rather than a per-call local) stops the
	// interface call from forcing a heap allocation per event.
	ectx execContext

	// pending holds unprocessed input events; processed holds executed
	// events in execution order (== event.Compare order), retained for
	// rollback until fossil-collected. processedBase is the absolute index
	// of processed[0]; committedAbs counts events committed so far.
	pending       pq.PendingSet
	processed     []*event.Event
	processedBase int64
	committedAbs  int64

	stateQ *statesave.Queue
	ckpt   *statesave.Checkpointer
	out    *cancel.Manager

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
	inHist      bool
	inLazy      bool

	// seq numbers outgoing events; it is deliberately not part of the
	// saved state — identities need uniqueness, not reproducibility.
	seq uint64
	// sendVT and sendSeq implement the reproducible per-send-time sequence
	// that orders same-timestamp events; they are checkpointed with state
	// and restored on rollback so re-executed sends reproduce their keys.
	sendVT  vtime.Time
	sendSeq uint32

	// coasting suppresses output transmission during coast forward.
	coasting bool

	rollbacks int64

	// au is this object's invariant-audit recorder (nil when auditing is
	// disabled).
	au *audit.ObjectAudit
}

// absProcessed returns the absolute index one past the last processed event.
func (o *simObject) absProcessed() int64 {
	return o.processedBase + int64(len(o.processed))
}

// nextTime returns the receive time of the next unprocessed event, or
// vtime.PosInf when idle.
func (o *simObject) nextTime() vtime.Time {
	if e := o.pending.PeekMin(); e != nil {
		return e.RecvTime
	}
	return vtime.PosInf
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
	id := pq.IdentityOf(ev)
	if a, ok := o.orphans[id]; ok {
		// The anti-message overtook us; the pair annihilates on arrival.
		delete(o.orphans, id)
		o.lp.pool.Put(a)
		o.lp.pool.Put(ev)
		return
	}
	if o.lastExec != nil && event.Compare(ev, o.lastExec) < 0 {
		o.rollback(ev, false)
	}
	o.pending.Push(ev)
	o.lp.refresh(o)
}

func (o *simObject) deliverAnti(anti *event.Event) {
	id := pq.IdentityOf(anti)
	if pos := o.pending.Remove(id); pos != nil {
		// Annihilated an unprocessed event; both members of the pair die.
		o.lp.pool.Put(pos)
		o.lp.pool.Put(anti)
		return
	}
	if o.processedHas(anti) {
		// The positive was already executed: roll back past it, which
		// requeues it into pending, then annihilate.
		o.rollback(anti, true)
		pos := o.pending.Remove(id)
		if pos == nil {
			panic(fmt.Sprintf("core: object %d: annihilation target vanished after rollback (%s)", o.id, anti))
		}
		o.lp.pool.Put(pos)
		o.lp.pool.Put(anti)
		return
	}
	if o.orphans == nil {
		o.orphans = make(map[pq.Identity]*event.Event)
	}
	o.orphans[id] = anti
	o.noteHistory(vtime.NegInf)
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
		f = vtime.Min(f, o.processed[o.committedAbs-o.processedBase].RecvTime)
	}
	return f
}

// processedHas reports whether the positive counterpart of anti is in the
// processed list. Processed events are in event.Compare order, and the
// positive sorts immediately after its anti, so scanning back until events
// sort before the anti is exact.
func (o *simObject) processedHas(anti *event.Event) bool {
	for i := len(o.processed) - 1; i >= 0; i-- {
		e := o.processed[i]
		if event.Compare(e, anti) < 0 {
			return false
		}
		if e.SameIdentity(anti) {
			return true
		}
	}
	return false
}

// rollback undoes optimistic work past the straggler: cancel outputs under
// the strategy in force, requeue rolled-back input events, restore the
// newest state strictly before the straggler's receive time, and coast
// forward (re-execute with outputs suppressed) up to the straggler.
func (o *simObject) rollback(straggler *event.Event, isAnti bool) {
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

	// Requeue the suffix of processed events ordered after the straggler.
	k := len(o.processed)
	for k > 0 && event.Compare(o.processed[k-1], straggler) > 0 {
		k--
	}
	rolled := int64(len(o.processed) - k)
	for _, e := range o.processed[k:] {
		o.pending.Push(e)
	}
	for i := k; i < len(o.processed); i++ {
		o.processed[i] = nil
	}
	o.processed = o.processed[:k]
	lp.st.EventsRolledBack += rolled
	lp.st.RollbackLength += rolled

	// Restore the newest snapshot strictly before the straggler.
	snap := o.stateQ.RestoreBefore(straggler.RecvTime)
	if o.au != nil {
		o.au.Restore(straggler, snap)
	}
	// The working state is exclusively object-owned (snapshots are deep
	// copies), so restore into it in place when the state supports reuse.
	if r, ok := snap.State.(model.Reusable); ok && o.state != nil {
		o.state = r.CopyInto(o.state)
	} else {
		o.state = snap.State.Clone()
	}
	o.sendVT = snap.SendVT
	o.sendSeq = snap.SendSeq

	// Coast forward through retained processed events taken after the
	// snapshot; their outputs were already (correctly) sent, so
	// transmission is suppressed.
	start := int(snap.Mark - o.processedBase)
	if start < 0 || start > len(o.processed) {
		panic(fmt.Sprintf("core: object %d: snapshot mark %d outside processed window [%d,%d)",
			o.id, snap.Mark, o.processedBase, o.absProcessed()))
	}
	var coasted int64
	var coastDur time.Duration
	if coast := o.processed[start:]; len(coast) > 0 {
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
	o.ckpt.OnRestore(len(o.processed) - start)

	lp.tr.Rollback(int32(o.id), int32(straggler.Sender), int64(straggler.SendTime), int64(straggler.RecvTime),
		isAnti, rolled, coasted, lp.st.AntiMsgsSent-antiBase, coastDur)
	if lp.obs != nil {
		lp.obs.RecordRollback(rolled)
	}

	if len(o.processed) > 0 {
		o.lastExec = o.processed[len(o.processed)-1]
		o.lvt = o.lastExec.RecvTime
	} else {
		o.lastExec = nil
		o.lvt = snap.Time
	}
	if o.au != nil {
		o.au.RollbackEnd(o.lastExec)
	}
}

// executeNext pops and executes the object's next event, then runs the
// per-event bookkeeping: lazy-expiry, checkpointing and its controller.
func (o *simObject) executeNext() {
	lp := o.lp
	ev := o.pending.PopMin()
	if ev == nil {
		return
	}
	if o.au != nil {
		o.au.Execute(ev)
	}
	spin.Spin(lp.cfg.EventCost)
	o.execApp(ev)
	o.processed = append(o.processed, ev)
	o.lastExec = ev
	o.lvt = ev.RecvTime
	// Everything this execution adds to the history — the processed event, a
	// checkpoint at lvt, output records generated by ev — is reclaimable only
	// by a GVT above ev's receive time.
	o.noteHistory(ev.RecvTime)
	lp.st.EventsProcessed++
	if lp.ld != nil {
		lp.ld.exec[o.id]++
	}

	o.out.AfterExecute(ev)

	if o.ckpt.OnEventProcessed() {
		t0 := time.Now()
		res := o.stateQ.Save(o.state, statesave.Snapshot{
			Time:    o.lvt,
			Mark:    o.absProcessed(),
			SendVT:  o.sendVT,
			SendSeq: o.sendSeq,
			Hash:    o.au.HashOf(o.state),
		})
		d := time.Since(t0)
		o.ckpt.RecordSaveCost(d)
		lp.st.StatesSaved++
		lp.st.StateSaveTime += d
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

// execApp invokes the model's handler for e against the working state.
func (o *simObject) execApp(e *event.Event) {
	o.ectx.cur = e
	o.obj.Execute(&o.ectx, o.state, e)
	o.ectx.cur = nil
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
	if next == vtime.PosInf || next.After(o.lp.cfg.EndTime) || next.After(o.lp.horizon()) {
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
		if !o.processed[rel].RecvTime.Before(gvt) {
			break
		}
		if o.au != nil {
			o.au.Commit(o.processed[rel], gvt)
		}
		o.committedAbs++
		lp.st.EventsCommitted++
	}

	if drop := o.stateQ.OldestMark() - o.processedBase; drop > 0 {
		n := int(drop)
		for i := 0; i < n; i++ {
			e := o.processed[i]
			if e == o.lastExec {
				// The cursor outlives the event: demote it to a by-value
				// copy before the event is recycled.
				o.lastExecStore = e.Key()
				o.lastExec = &o.lastExecStore
			}
			lp.pool.Put(e)
		}
		copy(o.processed, o.processed[n:])
		for i := len(o.processed) - n; i < len(o.processed); i++ {
			o.processed[i] = nil
		}
		o.processed = o.processed[:len(o.processed)-n]
		o.processedBase += drop
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
			o.au.Commit(o.processed[o.committedAbs-o.processedBase], vtime.PosInf)
		}
		o.committedAbs++
		o.lp.st.EventsCommitted++
	}
}

package core

import (
	"time"

	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// This file implements object migration: packing quiescent simulation
// objects — working state, pending events, processed history, state queue,
// output queue, per-object controller state — into a capsule, shipping it to
// another LP over the communication substrate, and installing it there. One
// capsule may carry several co-migrating objects bound for the same
// destination (the balancer batches its per-destination moves), paying the
// fixed capsule overhead and the physical message once.
//
// Correctness rests on three pillars:
//
//   - GVT soundness: the capsule is color-accounted like an events packet
//     (Endpoint.SendMigration / ReceiveMigration) with the minimum
//     virtual-time floor over its objects folded into the red minimum, so
//     GVT can never overtake the unprocessed work the capsule carries.
//
//   - No lost or duplicated events: the source packs at a safe point (the
//     packet-handling loop, never mid-execution) after draining its deferred
//     queue, so every event it has accepted for the objects travels inside
//     the capsule. Events that arrive at the source afterwards find the
//     object gone and are forwarded to the destination; per-sender FIFO
//     channels guarantee the capsule precedes any such forward from the
//     source itself.
//
//   - Routing convergence: the shared routing table flips only after the
//     destination installs each object, so a direct send routed by the new
//     entry always arrives post-install; until then senders reach the
//     source, which forwards using its outbound hint.

// capsuleItem is one migrated object inside a capsule plus the integrity
// manifest the destination checks on install.
type capsuleItem struct {
	o *simObject
	// pending is the unprocessed-event count at pack time; hash is the
	// structural hash of the working state (0 when auditing is off). The
	// installing LP verifies both — a mismatch means the move lost events or
	// state.
	pending int
	hash    uint64
	// stateEnc, when non-nil, is the working state's marshaled (and, when
	// comp, compressed) image: the codec facet ships encoded state and the
	// destination decodes it, so the audit hash check exercises the real
	// round trip. Nil means the state object travels in place.
	stateEnc []byte
	comp     bool
}

// decode makes the shipped state image, if the item carries one, the
// object's working state.
func (it *capsuleItem) decode() error {
	if it.stateEnc == nil {
		return nil
	}
	raw, err := codec.Unpack(it.stateEnc, it.comp)
	if err == nil {
		it.o.state, err = it.o.state.(codec.DeltaState).UnmarshalState(raw)
	}
	return err
}

// capsule is the migration payload: one or more object runtimes bound for
// the same destination LP.
type capsule struct {
	from  int
	items []capsuleItem
}

// capsuleOverheadBytes is the fixed per-capsule charge in the communication
// cost model; each object adds its events, state and state-queue bytes.
const capsuleOverheadBytes = 256

// perPendingEventBytes sizes one unprocessed event travelling in a capsule.
const perPendingEventBytes = 64

// onMigrateReq handles a migration request from the balancing controller.
// Stale or unsafe requests are dropped silently: an object may have moved
// on, the request may name this LP itself, or honoring it in full would
// empty this LP (the kernel requires every LP to host at least one object).
func (lp *lpRun) onMigrateReq(p comm.Packet) {
	if p.Dst < 0 || p.Dst >= lp.numLPs || p.Dst == lp.id {
		return
	}
	batch := make([]*simObject, 0, len(p.Objects))
	for _, id := range p.Objects {
		if int(id) < 0 || int(id) >= len(lp.k.objs) {
			continue
		}
		o := lp.hosted(event.ObjectID(id))
		if o == nil {
			continue
		}
		if len(lp.objs)-len(batch) <= 1 {
			break
		}
		batch = append(batch, o)
	}
	if len(batch) > 0 {
		lp.migrateOutBatch(batch, p.Dst)
	}
}

// migrateOutBatch packs every object in batch into one capsule and ships it
// to LP to. Called only from safe points (packet handling, the balancer at
// GVT application), never while an object is executing.
func (lp *lpRun) migrateOutBatch(batch []*simObject, to int) {
	// Flush everything this LP still owes the objects: queued intra-LP
	// messages (which may trigger rollbacks that change their queues) and
	// stale lazy-pending outputs.
	lp.drainDeferred()
	for _, o := range batch {
		o.drainStale()
	}

	// Detach: swap-remove each from the hosted set, fix the displaced
	// object's slot, and rebuild the worker's schedule tree over the
	// survivors.
	for _, o := range batch {
		last := len(lp.objs) - 1
		lp.objs[o.slot] = lp.objs[last]
		lp.objs[o.slot].slot = o.slot
		lp.objs[last] = nil
		lp.objs = lp.objs[:last]
		lp.outbound[o.id] = to
	}
	lp.d.workers[lp.worker.Load()].rebuild()
	// The departing objects leave this LP's lazy and history lists.
	stays := func(o *simObject) bool { return lp.hosted(o.id) != nil }
	lp.lazy = keepObjects(lp.lazy, stays)
	lp.hist = keepObjects(lp.hist, stays)
	lp.privatize(batch)

	c := &capsule{from: lp.id, items: make([]capsuleItem, 0, len(batch))}
	floor := vtime.PosInf
	rawBytes, storedBytes := capsuleOverheadBytes, capsuleOverheadBytes
	for _, o := range batch {
		it := capsuleItem{o: o, pending: len(o.in) - o.next}
		if lp.au != nil {
			it.hash = audit.HashState(o.state)
			lp.au.MigrateOut(o.id, to, it.pending, it.hash)
		}
		stateRaw := stateSizeEstimate(o.state)
		stateStored := stateRaw
		if lp.cfg.Codec.CompressWire() {
			if ds, ok := o.state.(codec.DeltaState); ok {
				raw := ds.MarshalState(nil)
				// This marshal and install's decode are not the queue's.
				o.stateQ.Unsync()
				it.stateEnc, it.comp = codec.Pack(lp.cfg.Codec, raw)
				stateRaw = len(raw)
				stateStored = len(it.stateEnc)
			}
		}
		evBytes := perPendingEventBytes * it.pending
		rawBytes += evBytes + stateRaw + o.stateQ.RawBytes()
		storedBytes += evBytes + stateStored + o.stateQ.StoredBytes()

		// The object's virtual-time floor: the minimum over its unprocessed
		// events and unresolved lazy outputs. Folding the batch minimum into
		// the GVT color accounting keeps GVT at or below everything in
		// flight.
		floor = vtime.Min(floor, vtime.Min(o.nextTime(), o.out.MinPending()))
		c.items = append(c.items, it)
	}
	lp.st.CapsuleRawBytes += int64(rawBytes)
	lp.st.CapsuleBytes += int64(storedBytes)
	if len(batch) > 1 {
		lp.st.BatchedMigrations += int64(len(batch))
	}
	lp.ep.SendMigration(to, c, floor, storedBytes)
}

// privatize makes everything the departing objects reach private to them, so
// that no event has holders on two LPs once the capsule is installed (the
// rule in package event): every event of their input and output queues that
// somebody else holds too — the sender's record of a delivered message, the
// receiver's copy of a sent one, a record's generating event — is replaced by
// one clone, every reference the batch has to it is repointed to that clone,
// and each releases the original. The batch travels in one capsule and is
// installed on one LP in one step, so its objects may go on sharing the clone
// among themselves.
func (lp *lpRun) privatize(batch []*simObject) {
	clones := make(map[*event.Event]*event.Event)
	own := func(e *event.Event) *event.Event {
		c, cloned := clones[e]
		switch {
		case cloned:
			lp.pool.Share(c)
		case e.Holders() == 1:
			return e
		default:
			c = lp.pool.Clone(e)
			clones[e] = c
		}
		lp.pool.Put(e)
		return c
	}
	for _, o := range batch {
		o.remapEvents(own)
	}
}

// stateSizeEstimate is the byte size charged for a state travelling
// unencoded: its own estimate when it provides one, else 0 (the capsule
// overhead still applies).
func stateSizeEstimate(st model.State) int {
	if s, ok := st.(interface{ StateBytes() int }); ok {
		return s.StateBytes()
	}
	return 0
}

// install adopts the migrated objects arriving in p: rebind each to this LP,
// verify the capsule manifest, and only then flip the shared routing table —
// after the flip, events routed by the new entry arrive at an LP that is
// ready to execute the object. The worker's schedule tree is rebuilt once, for
// the whole batch, after the loop: nothing in it reads or refreshes a key.
func (lp *lpRun) install(p comm.Packet) {
	c := p.Capsule.(*capsule)
	for i := range c.items {
		it := &c.items[i]
		o := it.o

		if err := it.decode(); err != nil { // the audit hash below checks it
			panic("core: migration capsule decode failed: " + err.Error())
		}

		o.lp = lp
		o.slot = int32(len(lp.objs))
		lp.objs = append(lp.objs, o)
		delete(lp.outbound, o.id) // the object may be coming back home

		// Repoint the pieces that point at the hosting LP: the output queue's
		// host (anti-message emitter, counters, event pool) and the controller
		// trace hooks. Events the object carried over recycle into the new
		// host's pool from now on.
		o.out.SetHost(&lp.host)
		bindObjectHooks(lp, o)
		lp.enlist(o)

		if lp.au != nil {
			o.au = lp.au.Adopt(o.au, o.id)
			lp.au.MigrateIn(o.id, c.from, it.pending, len(o.in)-o.next, it.hash, audit.HashState(o.state))
		}

		lp.st.Migrations++
		lp.st.MigratedEvents += int64(it.pending)
		epoch := lp.k.rt.Move(int(o.id), lp.id)
		lp.tr.Migration(int32(o.id), int32(c.from), int64(it.pending), int64(epoch))
	}
	lp.d.workers[lp.worker.Load()].rebuild()
}

// enlist enters a newly hosted object — fresh from initObjects or adopted by
// install — on this LP's lazy and history lists as its queues call for,
// re-deriving the fossil floor from them; whatever list state it carried
// belonged to its previous host.
func (lp *lpRun) enlist(o *simObject) {
	o.inLazy, o.inHist = false, false
	o.noteLazy()
	o.fossilFloor = vtime.PosInf
	if f := o.exactFossilFloor(); f != vtime.PosInf {
		o.noteHistory(f)
	}
}

// bindObjectHooks points o's controller hooks at lp's recorder. The codec
// switch hook always counts into lp's counters; trace hooks are cleared when
// tracing is off, and a static checkpointer or selector keeps none either way.
// Used at construction, at init (once the state queue exists), and re-used
// when a migrated object is installed on a new LP.
func bindObjectHooks(lp *lpRun, o *simObject) {
	sel := o.out.Selector()
	tr := lp.tr
	objID := int32(o.id)

	if sc := o.stateQ.Codec(); sc != nil {
		if tr == nil {
			sc.Hook = lp.codecSwitched
		} else {
			st := &lp.st
			sc.Hook = func(toDelta bool, ratio float64) {
				st.CodecSwitches++
				tr.CodecSwitch(objID, toDelta, int64(ratio*1000))
			}
		}
	}

	if tr == nil {
		o.ckpt.SetHook(nil)
		sel.SetHook(nil)
		return
	}
	o.ckpt.SetHook(func(oldChi, newChi int, ec time.Duration) {
		if oldChi != newChi {
			tr.CheckpointAdjust(objID, oldChi, newChi, ec)
		}
	})
	sel.SetHook(func(to cancel.Strategy, hitRatio float64) {
		tr.StrategySwitch(objID, to == cancel.Lazy, int64(hitRatio*1000))
	})
}

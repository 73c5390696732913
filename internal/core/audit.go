package core

import (
	"gowarp/internal/audit"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/vtime"
)

// auditLocalMin is localMin's full scan, kept under Config.Audit: the
// minimum over every hosted object must equal the one the LP's range of the
// schedule tree and the lazy list produced, and no object off the list may
// hold pending entries.
func (lp *lpRun) auditLocalMin(fast vtime.Time) {
	full := vtime.PosInf
	for _, o := range lp.objs {
		full = vtime.Min(full, vtime.Min(o.nextTime(), o.out.MinPending()))
		o.au.LazyListed(o.out.PendingLen(), o.inLazy)
	}
	lp.au.LocalMin(fast, full)
}

// historySize is what fossil collection can change about an object.
type historySize struct {
	snaps, sent, orphans int
	committed, base      int64
}

func (o *simObject) historySize() historySize {
	return historySize{o.stateQ.Len(), o.out.SentLen(), len(o.orphans), o.committedAbs, o.processedBase}
}

// auditHolders checks the one-LP rule of package event at a GVT application:
// every event this LP's queues reach — the hosted objects' input queues,
// output-queue records with their generation stamps, orphan tables, and the
// deferred list — must have exactly as many holders as references found. An
// event shared with an object on another LP, or in a capsule, comes up short.
func (lp *lpRun) auditHolders() {
	refs := make(map[*event.Event]int)
	count := func(e *event.Event) *event.Event {
		refs[e]++
		return e
	}
	for _, e := range lp.deferred {
		count(e)
	}
	for _, o := range lp.objs {
		o.remapEvents(count)
	}
	for e, n := range refs {
		lp.au.Holders(e, n)
	}
}

// auditFossil is applyGVT's full scan, kept under Config.Audit. Invariant
// (b): before any history is reclaimed, the new estimate must sit at or
// below every object's unprocessed minimum and its minimum unresolved lazy
// output. Then every hosted object is collected, and the ones the history
// list and fossil floor would have passed over must come out unchanged.
func (lp *lpRun) auditFossil(g vtime.Time) {
	for _, o := range lp.objs {
		o.au.Floor(g, o.nextTime(), o.out.MinPending())
	}
	for _, o := range lp.objs {
		floor, skipped := o.fossilFloor, !o.inHist || !o.fossilFloor.Before(g)
		before := o.historySize()
		o.fossilCollect(g)
		o.au.FossilSkip(g, floor, skipped, o.historySize() != before)
	}
}

// finishAudit runs the auditor's end-of-run sweep after every LP goroutine
// has joined (and only when none panicked), while the whole kernel state is
// quiescent and single-threaded:
//
//   - leftover events packets are decoded: every leftover event must lie
//     beyond the simulated horizon (the LPs stop only once GVT strictly
//     passes the end time, so nothing executable may remain in flight);
//   - the same holds for leftover deferred intra-LP messages and for every
//     object's unprocessed input (including objects adopted out of stray
//     migration capsules — theirs is checked like everyone else's);
//   - orphan anti-messages still parked are cancellation leaks;
//   - the message-conservation ledger is closed: events handed to the
//     communication substrate == events delivered + events still in
//     aggregation buffers + events decoded out of the undrained spillboxes.
//     Capsule-carried events bypass the ledger on both sides; forwarded
//     events enter it once per hop.
func finishAudit(au *audit.Auditor, lps []*lpRun) {
	var buffered, undelivered int64
	for _, lp := range lps {
		for _, p := range lp.spill.q {
			if p.Kind != comm.PktEvents {
				continue
			}
			buf := p.Payload
			for len(buf) > 0 {
				ev, rest, err := event.Decode(buf)
				if err != nil {
					// Undecodable leftovers would silently unbalance the
					// conservation check; surface them as lost payload.
					au.LostEvent(lp.id, &event.Event{Receiver: -1}, "a corrupt leftover packet")
					break
				}
				undelivered++
				au.LostEvent(lp.id, ev, "an undrained spillbox")
				buf = rest
			}
		}
		buffered += lp.ep.Buffered()
		lp.au.FinishDeferred(lp.deferred)
		for _, o := range lp.objs {
			o.au.Finish(o.in[o.next:], len(o.orphans))
		}
	}
	au.FinishRun(buffered, undelivered)
}

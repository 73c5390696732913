package core

import (
	"fmt"

	"gowarp/internal/event"
	"gowarp/internal/vtime"
)

// execContext is a simObject as the model sees it: model.Context for the
// Execute or Init invocation in progress, whose event is cur (nil during Init).
// It is the object under another name, so that the context handed to the model
// is the object's own pointer: no second struct, no pointer back, and no heap
// allocation per call.
type execContext simObject

// Self returns the executing object's ID.
func (c *execContext) Self() event.ObjectID { return c.id }

// Now returns the receive time of the executing event, or vtime.Zero during
// Init.
func (c *execContext) Now() vtime.Time {
	if c.cur == nil {
		return vtime.Zero
	}
	return c.cur.RecvTime
}

// EndTime returns the simulation end time.
func (c *execContext) EndTime() vtime.Time { return c.lp.cfg.EndTime }

// Send schedules an event at Now()+delay for the object named to. Outputs
// are suppressed during coast forward (they were already correctly sent
// before the rollback) and filtered through the cancellation manager, which
// withholds transmission on a lazy hit.
func (c *execContext) Send(to event.ObjectID, delay vtime.Time, kind uint32, payload []byte) {
	o := (*simObject)(c)
	if delay < 0 {
		panic(fmt.Sprintf("core: object %d sent an event into its own past (delay %s)", o.id, delay))
	}
	if int(to) < 0 || int(to) >= len(o.lp.k.objs) {
		panic(fmt.Sprintf("core: object %d sent to unknown object %d", o.id, to))
	}
	now := c.Now()
	// The (sendVT, sendSeq) counter advances identically during coast
	// forward, so re-executed sends reproduce their ordering keys.
	if now != o.sendVT {
		o.sendVT = now
		o.sendSeq = 0
	}
	id, seq := o.seq, o.sendSeq
	o.seq++
	o.sendSeq++
	if o.coasting {
		// Suppressed outputs advance the counters but never materialise,
		// so coast forward touches the pool not at all.
		return
	}
	ev := o.lp.pool.Get()
	ev.SendTime = now
	ev.RecvTime = now.Add(delay)
	ev.Sender = o.id
	ev.Receiver = to
	ev.ID = id
	ev.SendSeq = seq
	ev.Kind = kind
	// The payload is copied into pool-owned backing, so the caller may
	// reuse its slice as soon as Send returns.
	o.lp.pool.SetPayload(ev, payload)
	if !o.out.FilterOutput(ev, c.cur) {
		o.lp.pool.Put(ev) // lazy hit: the prematurely sent original stands
		return
	}
	o.out.RecordSent(ev, c.cur)
	o.lp.routeRecorded(ev, false)
}

package core

import (
	"sort"
	"testing"
	"time"

	"gowarp/internal/cancel"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/pq"
	"gowarp/internal/statesave"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// The input queue's tests. Its reference is the pair it replaced — a
// pq.HeapSet of unprocessed events beside a processed list — driven by the
// algorithm object.go ran over them: refQueue is the queue half (which
// BenchmarkInputQueue times beside the real one), refObject adds the state
// and the checkpoint marks.

// foldState is a state that remembers the order of what executed.
type foldState struct{ h uint64 }

func (s *foldState) Clone() model.State { c := *s; return &c }

func (s *foldState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*foldState)
	if !ok {
		return s.Clone()
	}
	*d = *s
	return d
}

func (s *foldState) fold(ev *event.Event) {
	s.h = (s.h ^ uint64(ev.RecvTime) ^ uint64(ev.SendSeq)<<40 ^ uint64(ev.Kind)<<20) * 0x9e3779b97f4a7c15
}

// sinkObject folds every event it executes into its state and sends nothing;
// one that bursts sends itself that many events from Init, at delays up to
// span drawn in random order, and then one more into the middle of them.
type sinkObject struct {
	burst int
	span  int
}

func (*sinkObject) Name() string              { return "sink" }
func (*sinkObject) InitialState() model.State { return &foldState{} }

func (s *sinkObject) Init(ctx model.Context, _ model.State) {
	if s.burst == 0 {
		return
	}
	r := model.NewRand(17)
	for i := 0; i < s.burst; i++ {
		ctx.Send(ctx.Self(), vtime.Time(1+r.Intn(s.span)), uint32(i), nil)
	}
	ctx.Send(ctx.Self(), vtime.Time(s.span/2), uint32(s.burst), nil)
}

func (*sinkObject) Execute(_ model.Context, st model.State, ev *event.Event) {
	st.(*foldState).fold(ev)
}

// newSinkKernel returns a one-LP, one-object kernel around obj, checkpointing
// every chi events, and the object's runtime.
func newSinkKernel(obj *sinkObject, chi int) (*lpRun, *simObject) {
	cfg := DefaultConfig(vtime.Time(1) << 40)
	cfg.Checkpoint = statesave.Config{Mode: statesave.Periodic, Interval: chi}
	m := &model.Model{Name: "sink", Partition: []int{0}, Objects: []model.Object{obj}}
	lp := newTestKernel(m, &cfg)[0]
	return lp, lp.objs[0]
}

// refQueue is the pair of structures the input queue replaced.
type refQueue struct {
	pending   *pq.HeapSet
	processed []*event.Event
}

func (q *refQueue) execute() *event.Event {
	e := q.pending.PopMin()
	q.processed = append(q.processed, e)
	return e
}

// requeue moves the processed events ordered after the straggler back into
// the pending set and returns how many they were.
func (q *refQueue) requeue(straggler *event.Event) int {
	k := len(q.processed)
	for k > 0 && event.Compare(q.processed[k-1], straggler) > 0 {
		k--
	}
	rolled := len(q.processed) - k
	for _, e := range q.processed[k:] {
		q.pending.Push(e)
	}
	clear(q.processed[k:])
	q.processed = q.processed[:k]
	return rolled
}

func (q *refQueue) processedHas(anti *event.Event) bool {
	for i := len(q.processed) - 1; i >= 0; i-- {
		e := q.processed[i]
		if event.Compare(e, anti) < 0 {
			return false
		}
		if e.SameIdentity(anti) {
			return true
		}
	}
	return false
}

// drop forgets the first n processed events, handing each to recycle.
func (q *refQueue) drop(n int, recycle func(*event.Event)) {
	for _, e := range q.processed[:n] {
		recycle(e)
	}
	kept := copy(q.processed, q.processed[n:])
	clear(q.processed[kept:])
	q.processed = q.processed[:kept]
}

// refSnap is a checkpoint as refObject keeps it.
type refSnap struct {
	time vtime.Time
	mark int64
	h    uint64
}

// refObject is the part of simObject that depends on the input queue, as it
// was over refQueue: straggler detection against lastExec, annihilation in
// three lookups, per-event requeue, periodic checkpoints and their marks.
type refObject struct {
	refQueue
	base, committed int64
	lastExec        *event.Event
	orphans         map[pq.Identity]*event.Event
	state           foldState
	lvt             vtime.Time
	snaps           []refSnap
	chi, sinceSave  int
	rollbacks       int64
}

func newRefObject(chi int) *refObject {
	return &refObject{
		refQueue: refQueue{pending: pq.NewHeapSet()},
		orphans:  map[pq.Identity]*event.Event{},
		snaps:    []refSnap{{time: vtime.NegInf}},
		chi:      chi,
	}
}

func (r *refObject) absProcessed() int64 { return r.base + int64(len(r.processed)) }

func (r *refObject) deliver(ev *event.Event) {
	id := pq.IdentityOf(ev)
	if ev.IsAnti() {
		if r.pending.Remove(id) != nil {
			return
		}
		if r.processedHas(ev) {
			r.rollback(ev)
			if r.pending.Remove(id) == nil {
				panic("reference: annihilation target vanished after rollback")
			}
			return
		}
		r.orphans[id] = ev
		return
	}
	if _, ok := r.orphans[id]; ok {
		delete(r.orphans, id)
		return
	}
	if r.lastExec != nil && event.Compare(ev, r.lastExec) < 0 {
		r.rollback(ev)
	}
	r.pending.Push(ev)
}

func (r *refObject) rollback(straggler *event.Event) {
	r.rollbacks++
	r.requeue(straggler)
	i := len(r.snaps)
	for !r.snaps[i-1].time.Before(straggler.RecvTime) {
		i--
	}
	r.snaps = r.snaps[:i]
	snap := r.snaps[i-1]
	r.state.h = snap.h
	coast := r.processed[snap.mark-r.base:]
	for _, e := range coast {
		r.state.fold(e)
	}
	r.sinceSave = min(len(coast), r.chi-1)
	r.lastExec, r.lvt = nil, snap.time
	if n := len(r.processed); n > 0 {
		r.lastExec = r.processed[n-1]
		r.lvt = r.lastExec.RecvTime
	}
}

func (r *refObject) executeNext() {
	ev := r.execute()
	r.state.fold(ev)
	r.lastExec, r.lvt = ev, ev.RecvTime
	if r.sinceSave++; r.sinceSave >= r.chi {
		r.sinceSave = 0
		r.snaps = append(r.snaps, refSnap{time: r.lvt, mark: r.absProcessed(), h: r.state.h})
	}
}

func (r *refObject) fossilCollect(gvt vtime.Time) {
	keep := 0
	for i, s := range r.snaps {
		if !s.time.Before(gvt) {
			break
		}
		keep = i
	}
	r.snaps = r.snaps[keep:]
	for r.committed < r.absProcessed() && r.processed[r.committed-r.base].RecvTime.Before(gvt) {
		r.committed++
	}
	if n := r.snaps[0].mark - r.base; n > 0 {
		r.drop(int(n), func(*event.Event) {})
		r.base += n
	}
	for id, a := range r.orphans {
		if a.RecvTime.Before(gvt) {
			delete(r.orphans, id)
		}
	}
}

// unprocessed returns the pending set's events in order.
func (r *refObject) unprocessed() []*event.Event {
	var evs []*event.Event
	r.pending.Walk(func(e *event.Event) { evs = append(evs, e) })
	sort.Slice(evs, func(i, j int) bool { return event.Less(evs[i], evs[j]) })
	return evs
}

// inputTape drives a simObject and a refObject through the same steps, read
// off a byte tape.
type inputTape struct {
	t      *testing.T
	lp     *lpRun
	o      *simObject
	ref    *refObject
	gvt    vtime.Time
	nextID uint64
	parked []event.Event // orphan anti-messages whose positive may still come

	// sender is the output queue of an imaginary object of the same LP: what
	// it sent is held by its records and by o's input queue, one struct for
	// both. recorded is what each of its records must go on reading, whatever
	// the input queue does with its own hold.
	sender   *cancel.Manager
	recorded []event.Event
}

// sendShared delivers ev to both objects the way an intra-LP send does: the
// sender's record keeps the struct and the input queue becomes its second
// holder.
func (tp *inputTape) sendShared(ev event.Event) {
	k := ev
	tp.ref.deliver(&k)
	e := tp.lp.pool.Get()
	*e = ev
	tp.sender.RecordSent(e, nil)
	tp.recorded = append(tp.recorded, ev)
	tp.o.deliver(tp.lp.pool.Share(e))
}

// send delivers ev to both objects; the reference keeps a copy of its own,
// since the kernel recycles what it annihilates and collects.
func (tp *inputTape) send(ev event.Event) {
	k := ev
	tp.ref.deliver(&k)
	e := tp.lp.pool.Get()
	*e = ev
	tp.o.deliver(e)
}

// fresh returns a new positive event from one of four senders, received at
// t. The narrow ranges make events that differ in nothing but their ID.
func (tp *inputTape) fresh(t vtime.Time, arg byte) event.Event {
	tp.nextID++
	return event.Event{
		RecvTime: t,
		SendTime: t - 1 - vtime.Time(arg>>6),
		Sender:   1 + event.ObjectID(arg>>4&3),
		Receiver: tp.o.id,
		SendSeq:  uint32(arg >> 3 & 1),
		ID:       tp.nextID,
		Kind:     uint32(arg),
	}
}

func anti(ev *event.Event) event.Event {
	a := ev.Key()
	a.Sign = event.Negative
	return a
}

// live returns the events an anti-message or a replacement may still name:
// the unprocessed ones and the processed ones at or above GVT.
func (tp *inputTape) live() (processed, unprocessed []*event.Event) {
	processed = tp.ref.processed
	for len(processed) > 0 && processed[0].RecvTime.Before(tp.gvt) {
		processed = processed[1:]
	}
	return processed, tp.ref.unprocessed()
}

func (tp *inputTape) step(op, arg byte) {
	o, ref := tp.o, tp.ref
	processed, unprocessed := tp.live()
	switch op % 11 {
	case 0: // deliver, anywhere from GVT on: a straggler if that is the past
		tp.send(tp.fresh(tp.gvt+vtime.Time(arg&31), arg))
	case 1: // execute
		for n := 1 + int(arg&3); n > 0 && len(unprocessed) > 0; n-- {
			ref.executeNext()
			o.executeNext()
			tp.lp.refresh(o)
			unprocessed = unprocessed[1:]
		}
	case 2: // straggler among the processed events
		if n := len(processed); n > 0 {
			tp.send(tp.fresh(processed[n-1-int(arg)%n].RecvTime, arg))
		}
	case 3: // anti-message for an unprocessed event
		if n := len(unprocessed); n > 0 {
			tp.send(anti(unprocessed[int(arg)%n]))
		}
	case 4: // anti-message for a processed event
		if n := len(processed); n > 0 {
			tp.send(anti(processed[n-1-int(arg)%n]))
		}
	case 5: // anti-message for an event that has not arrived
		ev := tp.fresh(tp.gvt+vtime.Time(arg&31), arg)
		tp.parked = append(tp.parked, ev)
		tp.send(anti(&ev))
	case 6: // the positive an orphan was waiting for
		if n := len(tp.parked); n > 0 {
			i := int(arg) % n
			ev := tp.parked[i]
			tp.parked = append(tp.parked[:i], tp.parked[i+1:]...)
			if !ev.RecvTime.Before(tp.gvt) {
				tp.send(ev)
			}
		}
	case 7: // transient replacement: an event's stable key under a new ID
		if all := append(processed, unprocessed...); len(all) > 0 {
			ev := all[int(arg)%len(all)].Key()
			tp.nextID++
			ev.ID = tp.nextID
			tp.send(ev)
		}
	case 8: // fossil collection at a GVT no unprocessed event is below
		bound := ref.lvt + 4
		if len(unprocessed) > 0 {
			bound = unprocessed[0].RecvTime
		}
		if bound > tp.gvt {
			tp.gvt += 1 + vtime.Time(arg)%(bound-tp.gvt)
			ref.fossilCollect(tp.gvt)
			o.fossilCollect(tp.gvt)
		}
	case 9: // deliver an event its sender's record holds too
		tp.sendShared(tp.fresh(tp.gvt+vtime.Time(arg&31), arg))
	case 10: // the sender's records are collected, whatever became of the events
		tp.sender.FossilCollect(vtime.PosInf)
		tp.recorded = tp.recorded[:0]
	}
	tp.check()
}

func (tp *inputTape) check() {
	t, o, ref := tp.t, tp.o, tp.ref
	t.Helper()
	queued := make(map[*event.Event]bool, len(o.in))
	for _, e := range o.in {
		queued[e] = true
	}
	// An event a record holds reads as sent, annihilated and collected out of
	// the input queue or not, and every count is the references there are.
	records := 0
	tp.sender.Remap(func(e *event.Event) *event.Event {
		want := &tp.recorded[records]
		records++
		if event.Compare(e, want) != 0 || e.Kind != want.Kind {
			t.Fatalf("a record's event reads %s, sent as %s", e, want)
		}
		holders := 1
		if queued[e] {
			holders, queued[e] = 2, false
		}
		if e.Holders() != holders {
			t.Fatalf("%s has %d holder(s), %d reference(s)", e, e.Holders(), holders)
		}
		return e
	})
	for e, alone := range queued {
		if alone && e.Holders() != 1 {
			t.Fatalf("%s has %d holders, the input queue alone refers to it", e, e.Holders())
		}
	}
	seen := make(map[pq.Identity]bool, len(o.in))
	for i, e := range o.in {
		if i > 0 && event.Compare(o.in[i-1], e) >= 0 {
			t.Fatalf("input queue out of order at %d: %s before %s", i, o.in[i-1], e)
		}
		if id := pq.IdentityOf(e); seen[id] || e.IsAnti() {
			t.Fatalf("input queue holds %s twice, or an anti-message", e)
		} else {
			seen[id] = true
		}
	}
	same := func(what string, got, want []*event.Event) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d %s events, reference has %d", len(got), what, len(want))
		}
		for i := range got {
			if event.Compare(got[i], want[i]) != 0 {
				t.Fatalf("%s event %d is %s, reference has %s", what, i, got[i], want[i])
			}
		}
	}
	same("processed", o.in[:o.next], ref.processed)
	same("unprocessed", o.in[o.next:], ref.unprocessed())
	if n := len(ref.processed); n > 0 && event.Compare(o.in[o.next-1], ref.lastExec) != 0 {
		t.Fatalf("last executed %s, reference %s", o.in[o.next-1], ref.lastExec)
	}
	got := [...]int64{o.absProcessed(), o.processedBase, o.committedAbs, int64(o.lvt), o.rollbacks,
		int64(len(o.orphans)), int64(o.stateQ.Len()), o.stateQ.OldestMark(), int64(o.stateQ.OldestTime()),
		int64(o.stateQ.Newest()), int64(o.state.(*foldState).h)}
	want := [...]int64{ref.absProcessed(), ref.base, ref.committed, int64(ref.lvt), ref.rollbacks,
		int64(len(ref.orphans)), int64(len(ref.snaps)), ref.snaps[0].mark, int64(ref.snaps[0].time),
		int64(ref.snaps[len(ref.snaps)-1].time), int64(ref.state.h)}
	if got != want {
		t.Fatalf("absProcessed, base, committed, lvt, rollbacks, orphans, snapshots, oldest mark, oldest and newest time, state:\n got %v\nwant %v", got, want)
	}
	if _, key := tp.lp.next(); key != o.nextTime() {
		t.Fatalf("schedule key %s, head %s", key, o.nextTime())
	}
}

// FuzzInputQueue drives a simObject through simObject's own methods beside
// the HeapSet-and-processed-list pair it used to keep: deliveries, executions,
// stragglers, anti-messages for unprocessed, processed and absent events,
// transient replacements, fossil collections and events shared with their
// sender's output record, read off a byte tape (the
// first byte picks the checkpoint interval, then an operation and an argument
// per step). After every step both must hold the same events in the same
// order on both sides of the cursor, the same checkpoints and the same state.
func FuzzInputQueue(f *testing.F) {
	// Stragglers: four arrivals, all executed, then one below each of them.
	f.Add([]byte{2, 0, 5, 0, 9, 0, 13, 0, 17, 1, 3, 2, 0, 1, 3, 2, 3, 0, 2, 1, 3})
	// Annihilation, unprocessed and processed, with a collection between.
	f.Add([]byte{1, 0, 4, 0, 8, 0, 12, 3, 1, 1, 1, 4, 0, 8, 1, 0, 20, 1, 3, 4, 2, 4, 0})
	// Orphans: anti-messages first, one positive arrives, one never does.
	f.Add([]byte{3, 5, 6, 5, 10, 0, 2, 6, 0, 1, 3, 8, 40, 8, 40, 6, 0})
	// Replacements of a processed and of an unprocessed event, then both
	// members of each pair cancelled.
	f.Add([]byte{4, 0, 3, 0, 7, 1, 0, 7, 0, 7, 1, 1, 3, 4, 0, 4, 0, 3, 0, 3, 0, 8, 9})
	// Shared with the sender's record: annihilated unprocessed and processed,
	// collected from the input queue first and from the record first.
	f.Add([]byte{2, 9, 4, 9, 8, 9, 12, 3, 2, 1, 3, 4, 0, 8, 30, 9, 6, 10, 0, 9, 9, 1, 3, 8, 30, 10, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		chi := 1 + int(tape[0])%5
		lp, o := newSinkKernel(&sinkObject{}, chi)
		tp := &inputTape{t: t, lp: lp, o: o, ref: newRefObject(chi)}
		var st stats.Counters
		tp.sender = cancel.NewManager(cancel.NewSelector(cancel.Config{}), func(*event.Event) {}, &st, lp.pool)
		for i := 1; i+1 < len(tape); i += 2 {
			tp.step(tape[i], tape[i+1])
		}
	})
}

// TestInputQueueDeep is the case an O(n) insert has to survive: 65,536 events
// delivered to one object in random timestamp order, executed, half of them
// rolled back by one straggler and executed again. The state must come out as
// the sequential kernel's, and the wall time of each phase is logged.
func TestInputQueueDeep(t *testing.T) {
	const depth = 1 << 16
	obj := &sinkObject{burst: depth, span: 1 << 20}
	seq, err := RunSequential(&model.Model{Name: "sink", Partition: []int{0}, Objects: []model.Object{obj}},
		vtime.Time(1)<<40, 0)
	if err != nil {
		t.Fatal(err)
	}
	lp, o := newSinkKernel(obj, 4)

	// Hold back the event Init sent last, into the middle of the burst.
	last := len(lp.deferred) - 1
	straggler := lp.deferred[last]
	lp.deferred = lp.deferred[:last]

	start := time.Now()
	lp.drainDeferred()
	delivered := time.Since(start)
	if len(o.in) != depth || o.next != 0 {
		t.Fatalf("%d events queued with %d processed, want %d and 0", len(o.in), o.next, depth)
	}
	for lp.execStep() {
	}
	executed := time.Since(start) - delivered
	lp.deliver(straggler)
	rolled := lp.st.EventsRolledBack
	for lp.execStep() {
	}
	again := time.Since(start) - delivered - executed
	t.Logf("%d events: delivered in %v (%.0f ns each), executed in %v, %d rolled back and executed again in %v",
		depth, delivered, float64(delivered.Nanoseconds())/depth, executed, rolled, again)

	if rolled < depth/4 || rolled > 3*depth/4 {
		t.Errorf("the straggler rolled back %d of %d events, want about half", rolled, depth)
	}
	if o.next != depth+1 || len(o.in) != depth+1 {
		t.Errorf("%d of %d events processed, want all %d", o.next, len(o.in), depth+1)
	}
	if got, want := o.state.(*foldState).h, seq.FinalStates[0].(*foldState).h; got != want || seq.EventsExecuted != depth+1 {
		t.Errorf("state %#x after rollback and re-execution; the sequential kernel executed %d events to %#x",
			got, seq.EventsExecuted, want)
	}
}

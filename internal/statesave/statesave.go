// Package statesave implements the state-saving side of Time Warp: the state
// queue holding an object's checkpoint history, periodic check-pointing with
// interval χ, and the on-line checkpoint-interval controller of Section 4 of
// the paper, described by the control tuple <Ec, χ, χ0, A, P>. The sampled
// output Ec is the sum of state-saving and coast-forward costs over the
// control period; the transfer function A increments χ when Ec has not grown
// significantly and decrements it otherwise, converging on the cost minimum
// under the paper's single-minimum assumption.
package statesave

import (
	"math"
	"time"

	"gowarp/internal/codec"
	"gowarp/internal/control"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// Snapshot is one saved state: the object's state after processing all
// events up to and including virtual time Time. Mark is the kernel's
// absolute count of events the object had processed when the snapshot was
// taken; a rollback restoring this snapshot coast-forwards exactly the
// processed events from Mark up to the straggler. SendVT and SendSeq
// preserve the object's send-sequence counter (the reproducible component of
// the event total order) so re-executed sends carry the same ordering keys.
type Snapshot struct {
	Time    vtime.Time
	State   model.State
	Mark    int64
	SendVT  vtime.Time
	SendSeq uint32
	// Hash is the structural hash of State at save time, stamped by the
	// runtime invariant auditor and re-verified on restore; 0 means the
	// snapshot was taken with auditing disabled.
	//
	// When the queue runs with a state codec, State is nil and the snapshot
	// lives as an encoding the queue keeps beside it (see encodings).
	Hash uint64
}

// SaveResult reports the byte cost of one checkpoint: the size of the full
// state encoding and of what was actually stored (equal when the codec is
// off, where both are the state's own size estimate).
type SaveResult struct {
	RawBytes    int
	StoredBytes int
	Delta       bool
}

// Queue is a simulation object's state queue (Figure 1), ordered by
// ascending snapshot time. The initial (post-Init) state is stored at
// vtime.NegInf so a rollback before the first finite checkpoint always finds
// a restore point.
//
// With a state codec attached (and a state implementing codec.DeltaState),
// snapshots are held as encodings instead of cloned states: reversible sparse
// deltas under delta encoding, full images under full encoding, compressed
// when configured. The queue keeps the newest snapshot's encoding whole
// (lastEnc); a restore that pops snapshots walks back from it in place,
// undoing the deltas of the snapshots it pops, and RestoreInto decodes the
// result straight into the live state: a rollback costs what it undoes plus
// one decode, and allocates nothing. A delta queue so holds exactly one whole
// image. A full snapshot cannot be walked back through, so the delta snapshot
// before one keeps its own image too (see Save), and the oldest snapshot's
// delta, which no walk undoes, is not kept. The rule throughout is that a
// full-state image is copied only where two copies must both survive, and a
// save reads what the event wrote: a state that is a codec.DirtyState too is
// asked for the regions it dirtied, and the queue patches the encoding it
// holds and builds the delta from those alone (see encode).
//
// A clone-path queue is its snapshot slice and nothing else. What only the
// encoded path needs — codec, delta base, scratch and spare buffers — is behind
// enc, nil when checkpoints are cloned states.
type Queue struct {
	// snaps[:len] are the snapshots held. A slot between len and cap keeps the
	// State of the snapshot that last lay there when that state is
	// model.Reusable: states popped by RestoreBefore or discarded by
	// FossilCollect are exclusively queue-owned — the kernel always clones
	// before mutating — so the Save that reaches the slot refills the state
	// through CopyInto instead of allocating a fresh deep copy.
	snaps []Snapshot
	enc   *encodings
}

// encodings is the encoded path's half of a Queue.
type encodings struct {
	cd *codec.StateCodec
	// of[i] is how snaps[i] is stored; the two slices grow, shrink and shift
	// together. A clone-path Snapshot so carries no field of the encoded path.
	of []encoded
	// lastEnc is the full (uncompressed) encoding of the newest snapshot: the
	// base for the next delta, where a restore walks back from, and what
	// RestoreInto decodes.
	lastEnc []byte
	// scratch is the recycled marshal buffer — a codec.DirtyState's report, or
	// a whole marshal, which then trades places with lastEnc; deltaScratch is
	// the recycled delta-encoding buffer. Every snapshot's enc is copied out of
	// them, so neither they nor lastEnc ever alias queue storage.
	scratch      []byte
	deltaScratch []byte
	// regions is the recycled list a codec.DirtyState reports into (its bytes
	// go to scratch). unsynced is set while the live state's last marshal or
	// unmarshal was someone else's (see Queue.Unsync), so that what it would
	// report is not measured from lastEnc.
	regions  []codec.Region
	unsynced bool
	// spareFull and spareDelta hold the buffers of stored forms that left the
	// queue, by kind because the two differ in size by orders of magnitude;
	// pack stores the next one of that kind over one. A buffer is on a spare
	// list or in a live snapshot, never both.
	spareFull, spareDelta [][]byte
}

// encoded is the stored form of one snapshot of an encoded queue, optionally
// compressed, and the length of the full encoding it stands for. enc is the
// snapshot's full image, or with delta set the reversible delta from the
// previous snapshot's encoding — nil for the oldest snapshot, whose delta no
// walk back undoes. image is a delta snapshot's own full image, kept while the
// snapshot after it is a full one: a walk back cannot undo a full snapshot, so
// it starts from here instead.
type encoded struct {
	enc, image      []byte
	delta           bool
	comp, imageComp bool
	rawLen          int
}

// full returns the stored full image s carries, if it carries one.
func (s *encoded) full() (image []byte, comp, ok bool) {
	if !s.delta {
		return s.enc, s.comp, true
	}
	return s.image, s.imageComp, s.image != nil
}

// clone produces the stored copy of st for a snapshot, over retired, the
// state a vacated slot kept, when st's type supports it.
func clone(st, retired model.State) model.State {
	if r, ok := st.(model.Reusable); ok && retired != nil {
		return r.CopyInto(retired)
	}
	return st.Clone()
}

// vacate empties the slot of a snapshot that has left the queue, down to a
// reusable state (see Queue.snaps).
func vacate(s *Snapshot) {
	st := s.State
	if _, ok := st.(model.Reusable); !ok {
		st = nil
	}
	*s = Snapshot{State: st}
}

// spare returns the spare list for delta or full-image buffers.
func (e *encodings) spare(delta bool) *[][]byte {
	if delta {
		return &e.spareDelta
	}
	return &e.spareFull
}

// pack stores payload (a full image, or a delta when delta is set) for a
// snapshot, over a retired buffer of the same kind when there is one.
func (e *encodings) pack(payload []byte, delta bool) (enc []byte, comp bool) {
	spare := e.spare(delta)
	var dst []byte
	if n := len(*spare); n > 0 {
		dst = (*spare)[n-1]
		(*spare)[n-1] = nil
		*spare = (*spare)[:n-1]
	}
	return codec.PackInto(dst, e.cd.Config(), payload)
}

// recycle puts a buffer nothing reads any more on the spare list of its kind.
func (e *encodings) recycle(b []byte, delta bool) {
	if cap(b) > 0 {
		spare := e.spare(delta)
		*spare = append(*spare, b)
	}
}

// retire recycles the stored forms of a snapshot that is leaving the queue.
func (e *encodings) retire(s *encoded) {
	e.recycle(s.enc, s.delta)
	e.recycle(s.image, false)
	*s = encoded{}
}

// trimOldest releases the delta of the oldest snapshot, which no walk back
// undoes: a walk stops at the snapshot it restores. An oldest snapshot that
// kept its own image becomes a full one.
func (e *encodings) trimOldest() {
	s := &e.of[0]
	if !s.delta {
		return
	}
	e.recycle(s.enc, true)
	s.enc, s.comp = nil, false
	if s.image != nil {
		s.enc, s.comp, s.delta = s.image, s.imageComp, false
		s.image, s.imageComp = nil, false
	}
}

// NewQueue returns a state queue primed with the object's initial
// (post-Init) state. meta carries the initial snapshot's bookkeeping
// (SendVT, SendSeq, Hash); its Time is forced to vtime.NegInf. cd selects
// encoded checkpointing; it is ignored (and the queue falls back to cloned
// states) when st does not implement codec.DeltaState.
func NewQueue(st model.State, meta Snapshot, cd *codec.StateCodec) *Queue {
	q := &Queue{}
	q.Init(st, meta, cd)
	return q
}

// Init is NewQueue in place, for a Queue held by value inside its object's
// runtime: a zero one, or one a Block has bound, which keeps the snapshot array
// and the encoded-path storage the block gave it.
func (q *Queue) Init(st model.State, meta Snapshot, cd *codec.StateCodec) {
	meta.Time = vtime.NegInf
	if ds, ok := st.(codec.DeltaState); ok && cd != nil {
		if q.enc == nil {
			q.enc = &encodings{}
		}
		e := q.enc
		e.cd = cd
		// The initial snapshot is the oldest: its image is lastEnc for now, and
		// its delta is never kept.
		raw := ds.MarshalState(nil)
		e.of = append(e.of[:0], encoded{delta: true, rawLen: len(raw)})
		e.lastEnc, e.unsynced = raw, false
	} else {
		q.enc = nil
		meta.State = st.Clone()
	}
	q.snaps = append(q.snaps[:0], meta)
}

// Codec returns the queue's state codec (nil when checkpoints are cloned
// states, either by configuration or because the state is not a
// codec.DeltaState). On a queue a Block has bound and Init has not yet seen it
// is the codec the block made for it.
func (q *Queue) Codec() *codec.StateCodec {
	if q.enc == nil {
		return nil
	}
	return q.enc.cd
}

// Save checkpoints st: the snapshot's encoding (or clone) is taken here,
// while meta carries the bookkeeping fields. Snapshot times must be
// non-decreasing; equal times are allowed (several events may share a
// timestamp) and the later snapshot wins on restore.
func (q *Queue) Save(st model.State, meta Snapshot) SaveResult {
	// The snapshot goes into the next slot, reslicing rather than appending so
	// that a state the slot kept (see Queue.snaps) is there to refill.
	n := len(q.snaps)
	if n == cap(q.snaps) {
		q.snaps = append(q.snaps, Snapshot{})
	} else {
		q.snaps = q.snaps[:n+1]
	}
	slot := &q.snaps[n]
	e := q.enc
	if e == nil {
		meta.State = clone(st, slot.State)
		*slot = meta
		size := stateBytes(meta.State)
		return SaveResult{RawBytes: size, StoredBytes: size}
	}
	*slot = meta
	isDelta := e.cd.UsingDelta()
	if prev := &e.of[len(e.of)-1]; !isDelta && prev.delta {
		// A walk back cannot undo the full snapshot this save stores: the
		// delta snapshot before it keeps its own image, packed from lastEnc
		// while that is still its encoding.
		prev.image, prev.imageComp = e.pack(e.lastEnc, false)
		if prev.image == nil {
			prev.image = []byte{} // an empty encoding is kept all the same
		}
		if len(e.of) == 1 {
			e.trimOldest()
		}
	}
	// A Dynamic controller now and then sizes the encoding not in force too.
	probe := e.cd.ProbeNow()
	e.encode(st.(codec.DeltaState), isDelta || probe)
	payload, other := e.lastEnc, e.deltaScratch
	if isDelta {
		payload, other = other, payload
	}
	if probe {
		e.probe(other, !isDelta)
	}
	stored, comp := e.pack(payload, isDelta)
	e.cd.RecordSave(len(stored), isDelta)
	e.of = append(e.of, encoded{enc: stored, delta: isDelta, comp: comp, rawLen: len(e.lastEnc)})
	return SaveResult{RawBytes: len(e.lastEnc), StoredBytes: len(stored), Delta: isDelta}
}

// probe feeds the controller the size payload, the encoding not in force,
// would be stored at. Uncompressed that is its length; compressed it is taken
// over a spare buffer that goes straight back, so the probe retains nothing.
func (e *encodings) probe(payload []byte, delta bool) {
	if e.cd.Config().Compression == codec.NoCompression {
		e.cd.RecordProbe(len(payload))
		return
	}
	b, _ := e.pack(payload, delta)
	e.cd.RecordProbe(len(b))
	e.recycle(b, delta)
}

// encode makes lastEnc the encoding of st and, when wantDelta is set, leaves in
// deltaScratch the delta from the encoding it replaces. A codec.DirtyState in
// step with the queue is asked what changed, and lastEnc is patched with that
// where it lies (the delta falls out of the same pass, wanted or not); any
// other state, and one that cannot tell, is marshalled whole and compared.
func (e *encodings) encode(st codec.DeltaState, wantDelta bool) {
	if ds, ok := st.(codec.DirtyState); ok && !e.unsynced {
		var told bool
		if e.scratch, e.regions, told = ds.MarshalDirty(e.scratch[:0], e.regions[:0]); told {
			var err error
			e.deltaScratch, err = codec.PatchRegions(e.deltaScratch[:0], e.lastEnc, e.regions, e.scratch)
			if err != nil {
				panic("statesave: state misreported what it dirtied: " + err.Error())
			}
			return
		}
	}
	raw := st.MarshalState(e.scratch[:0])
	if wantDelta {
		e.deltaScratch = codec.AppendDelta(e.deltaScratch[:0], e.lastEnc, raw)
	}
	// The marshal buffer becomes the new delta base; recycle the old base
	// (never aliased by queue storage) as the next marshal buffer.
	e.scratch, e.lastEnc = e.lastEnc, raw
	e.unsynced = false
}

// Unsync tells the queue that the live state was marshalled or unmarshalled
// behind its back — a migration capsule does both — which moves the point a
// codec.DirtyState reports from off the encoding the queue holds. The next Save
// marshals the whole state, as for a state that cannot tell.
func (q *Queue) Unsync() {
	if q.enc != nil {
		q.enc.unsynced = true
	}
}

// RestoreInto is the rollback: it pops every snapshot at or after time t
// (RestoreBefore) and makes the newest remaining one the live state, reusing
// live's storage. It returns that snapshot's bookkeeping with State set to
// the restored live state — usually live itself, refilled, which the caller
// must adopt either way. On the codec path the snapshot's encoding is decoded
// straight into live (codec.DeltaState.UnmarshalState on the state being
// replaced), so nothing is allocated and no decoded copy stays behind in the
// queue; on the clone path the stored state is copied over live when it is
// model.Reusable and cloned otherwise.
func (q *Queue) RestoreInto(t vtime.Time, live model.State) Snapshot {
	snap := q.RestoreBefore(t)
	if q.enc != nil {
		st, err := live.(codec.DeltaState).UnmarshalState(q.enc.lastEnc)
		if err != nil {
			panic("statesave: snapshot decode failed: " + err.Error())
		}
		snap.State = st
		q.enc.unsynced = false
	} else if r, ok := snap.State.(model.Reusable); ok {
		snap.State = r.CopyInto(live)
	} else {
		snap.State = snap.State.Clone()
	}
	return snap
}

// RestoreBefore pops every snapshot at or after time t and returns the
// newest remaining snapshot — the state to resume from when a straggler with
// receive time t arrives. The returned snapshot stays in the queue; its State
// is the queue's own copy on the clone path (clone it before mutating) and
// nil on the codec path, where the restore point is left in lastEnc for
// RestoreInto to decode. The strict inequality matters: a snapshot taken at
// exactly t may already include a same-time event that must be re-ordered
// after the straggler.
func (q *Queue) RestoreBefore(t vtime.Time) Snapshot {
	n := len(q.snaps)
	i := n
	for i > 0 && !q.snaps[i-1].Time.Before(t) {
		i--
		vacate(&q.snaps[i])
	}
	q.snaps = q.snaps[:i]
	// The NegInf snapshot is never discarded, so i >= 1 always holds. With
	// nothing popped lastEnc is the head's encoding already.
	if e := q.enc; e != nil && i < n {
		// The popped snapshots' deltas are what the walk undoes: they leave
		// after it.
		e.walkBack(i - 1)
		for j := i; j < n; j++ {
			e.retire(&e.of[j])
		}
		e.of = e.of[:i]
		// No full snapshot follows the restore point any more: as a delta it
		// keeps no image of its own.
		if s := &e.of[i-1]; s.delta {
			e.recycle(s.image, false)
			s.image, s.imageComp = nil, false
		}
	}
	return q.snaps[i-1]
}

// walkBack makes lastEnc, the newest snapshot's encoding, the encoding of
// snapshot k. It starts from the lowest snapshot at or after k that carries a
// full image — one copy of it — or from lastEnc itself when none before the
// newest does, and undoes the deltas from there down to k's successor's, in
// place. Every snapshot between k and its start is a delta: a full one is
// preceded by an image (see Save). A decode failure means the queue corrupted
// its own encodings, an invariant violation worth stopping the run for.
func (e *encodings) walkBack(k int) {
	f, newest := k, len(e.of)-1
	for ; f < newest; f++ {
		if image, comp, ok := e.of[f].full(); ok {
			raw, err := codec.Unpack(image, comp)
			if err != nil {
				panic("statesave: checkpoint image corrupt: " + err.Error())
			}
			e.lastEnc = append(e.lastEnc[:0], raw...)
			break
		}
	}
	for ; f > k; f-- {
		s := &e.of[f]
		d, err := codec.Unpack(s.enc, s.comp)
		if err == nil {
			e.lastEnc, err = codec.UndoDelta(e.lastEnc, d)
		}
		if err != nil {
			panic("statesave: checkpoint chain corrupt: " + err.Error())
		}
	}
}

// FossilCollect discards snapshots that can never be restored again once GVT
// has reached gvt: everything older than the newest snapshot strictly before
// gvt. Strictness matters — a straggler may still arrive with receive time
// exactly GVT, and restoring it needs a snapshot from strictly earlier.
// It returns the number of snapshots reclaimed.
func (q *Queue) FossilCollect(gvt vtime.Time) int {
	keep := 0
	for i := range q.snaps {
		if !q.snaps[i].Time.Before(gvt) {
			break
		}
		keep = i
	}
	if keep == 0 {
		return 0
	}
	if e := q.enc; e != nil {
		// The stored forms of the discarded snapshots go, and nothing is
		// re-encoded: the new oldest snapshot's delta is merely released.
		for i := 0; i < keep; i++ {
			e.retire(&e.of[i])
		}
		kept := copy(e.of, e.of[keep:])
		clear(e.of[kept:])
		e.of = e.of[:kept]
		e.trimOldest()
	}
	// Close the gap by exchange rather than by copy: the discarded snapshots
	// end up in the slots the slice gives up, where vacate leaves what the next
	// Saves reuse of them.
	n := len(q.snaps)
	for j := 0; j+keep < n; j++ {
		q.snaps[j], q.snaps[j+keep] = q.snaps[j+keep], q.snaps[j]
	}
	for i := n - keep; i < n; i++ {
		vacate(&q.snaps[i])
	}
	q.snaps = q.snaps[:n-keep]
	return keep
}

// FossilFloor returns the bound FossilCollect's gvt must exceed to reclaim
// anything: a call with gvt at or below it is a no-op. The oldest snapshot is
// always retained, so the bound is the time of the second-oldest one
// (vtime.PosInf when there is none).
func (q *Queue) FossilFloor() vtime.Time {
	if len(q.snaps) < 2 {
		return vtime.PosInf
	}
	return q.snaps[1].Time
}

// StoredBytes sums the bytes the queue actually holds per snapshot: encoded
// sizes on the codec path, state size estimates otherwise. Migration uses it
// to cost shipping the queue's content.
func (q *Queue) StoredBytes() int {
	if q.enc == nil {
		return q.RawBytes()
	}
	total := 0
	for i := range q.enc.of {
		total += len(q.enc.of[i].enc) + len(q.enc.of[i].image)
	}
	return total
}

// RawBytes sums the full (unencoded) state size per snapshot, the baseline
// StoredBytes is measured against.
func (q *Queue) RawBytes() int {
	total := 0
	if q.enc != nil {
		for i := range q.enc.of {
			total += q.enc.of[i].rawLen
		}
		return total
	}
	for i := range q.snaps {
		total += stateBytes(q.snaps[i].State)
	}
	return total
}

// stateBytes is the size estimate used when checkpoints are cloned states.
func stateBytes(st model.State) int {
	if s, ok := st.(interface{ StateBytes() int }); ok {
		return s.StateBytes()
	}
	return 0
}

// Len returns the number of snapshots held (including the initial one).
func (q *Queue) Len() int { return len(q.snaps) }

// OldestMark returns the Mark of the oldest retained snapshot. Processed
// events below it can never be needed for coast forward again and may be
// fossil-collected by the kernel.
func (q *Queue) OldestMark() int64 { return q.snaps[0].Mark }

// OldestTime returns the snapshot time of the oldest retained snapshot.
// After fossil collection under GVT g it must still lie strictly below g
// (the restorability floor the auditor checks).
func (q *Queue) OldestTime() vtime.Time { return q.snaps[0].Time }

// Newest returns the most recent snapshot time, for tests and reports.
func (q *Queue) Newest() vtime.Time { return q.snaps[len(q.snaps)-1].Time }

// Mode selects how the checkpoint interval is managed.
type Mode int

const (
	// Periodic uses a fixed interval χ for the whole run.
	Periodic Mode = iota
	// Dynamic adapts χ on line with the Section 4 controller.
	Dynamic
)

// String names the mode for reports and flags.
func (m Mode) String() string {
	if m == Dynamic {
		return "dynamic"
	}
	return "periodic"
}

// Config parameterizes a Checkpointer.
type Config struct {
	// Mode selects periodic or dynamic interval management.
	Mode Mode
	// Interval is χ0: the fixed interval (Periodic) or initial interval
	// (Dynamic). Values below 1 are treated as 1 (save after every event).
	Interval int
	// Period is P: processed events between controller invocations.
	Period int
}

// The dynamic controller's clamps on χ and its significance margin: the
// relative Ec increase that counts as worse. Every experiment ran with these.
const (
	minInterval = 1
	maxInterval = 64
	ctlMargin   = 0.05
)

// withDefaults fills unset fields with the defaults used in the experiments.
func (c Config) withDefaults() Config {
	if c.Interval < 1 {
		c.Interval = 1
	}
	if c.Period < 1 {
		c.Period = 256
	}
	return c
}

// Checkpointer decides, per simulation object, when to checkpoint, and (in
// Dynamic mode) adapts the interval χ from the observed cost index Ec. A
// periodic checkpointer is its interval and a counter, which is all that
// OnEventProcessed reads of it. Everything else — the dynamic controller's
// ticker, transfer function and Ec sums, the adjustment count and the
// hook — is behind ctl, nil unless the mode is Dynamic.
type Checkpointer struct {
	interval  int32
	sinceSave int32
	ctl       *controller
}

// controller is the part of a Checkpointer that only the Dynamic mode has.
type controller struct {
	ticker   control.Ticker
	transfer control.IncUnlessWorse

	// Ec accumulation for the current control period.
	saveCost  time.Duration
	coastCost time.Duration

	adjustments int64
	hook        func(oldChi, newChi int, ec time.Duration)
}

// init sets c up for cfg, defaults applied. ctl is where a dynamic controller's
// state goes: a Block's slot, nil unless the mode is Dynamic.
func (c *Checkpointer) init(cfg Config, ctl *controller) {
	*c = Checkpointer{interval: int32(min(cfg.Interval, math.MaxInt32))}
	if cfg.Mode != Dynamic {
		return
	}
	*ctl = controller{
		ticker:   *control.NewTicker(cfg.Period),
		transfer: control.IncUnlessWorse{Margin: ctlMargin},
	}
	c.ctl = ctl
}

// Interval returns the current checkpoint interval χ.
func (c *Checkpointer) Interval() int { return int(c.interval) }

// Mode returns the interval-management mode.
func (c *Checkpointer) Mode() Mode {
	if c.ctl != nil {
		return Dynamic
	}
	return Periodic
}

// Adjustments counts interval changes, for the statistics report.
func (c *Checkpointer) Adjustments() int64 {
	if c.ctl == nil {
		return 0
	}
	return c.ctl.adjustments
}

// SetHook installs fn (nil removes it) to observe every control decision of
// the dynamic controller — the interval before and after (equal when saturated
// at a clamp) and the cost index Ec observed over the period. A periodic
// checkpointer makes no decision, so it keeps no hook. Set it before the run.
func (c *Checkpointer) SetHook(fn func(oldChi, newChi int, ec time.Duration)) {
	if c.ctl != nil {
		c.ctl.hook = fn
	}
}

// OnEventProcessed is called after each forward event execution; it returns
// true when a checkpoint should be taken now. In Dynamic mode it also runs
// the control period and adjusts χ.
func (c *Checkpointer) OnEventProcessed() (saveNow bool) {
	c.sinceSave++
	if ctl := c.ctl; ctl != nil && ctl.ticker.Tick() {
		ec := ctl.saveCost + ctl.coastCost
		old := int(c.interval)
		p := control.IntParam{Value: old, Min: minInterval, Max: maxInterval, Step: 1}
		ctl.transfer.Observe(float64(ec), &p)
		if p.Value != old {
			ctl.adjustments++
		}
		if ctl.hook != nil {
			ctl.hook(old, p.Value, ec)
		}
		c.interval = int32(p.Value)
		ctl.saveCost, ctl.coastCost = 0, 0
	}
	if c.sinceSave >= c.interval {
		c.sinceSave = 0
		return true
	}
	return false
}

// OnRestore resynchronizes the events-since-save counter after a rollback:
// coasted events since the restored snapshot count toward the next save.
func (c *Checkpointer) OnRestore(coasted int) {
	c.sinceSave = int32(coasted)
	if c.sinceSave >= c.interval {
		// Avoid an immediate save storm after long coasts; save at the
		// next processed event.
		c.sinceSave = c.interval - 1
	}
}

// RecordSaveCost accumulates the wall-clock cost of one checkpoint into Ec.
// Only the dynamic controller reads Ec; a periodic checkpointer keeps none.
func (c *Checkpointer) RecordSaveCost(d time.Duration) {
	if c.ctl != nil {
		c.ctl.saveCost += d
	}
}

// RecordCoastCost accumulates the wall-clock cost of one coast-forward phase
// into Ec.
func (c *Checkpointer) RecordCoastCost(d time.Duration) {
	if c.ctl != nil {
		c.ctl.coastCost += d
	}
}

// Block is what the state queues and checkpointers of one LP's objects are
// built from: out of one allocation the slot each queue starts on — room for
// the initial snapshot, which is all an object that never executes holds; the
// first checkpoint moves the queue to an array of its own — and out
// of one more each, only under a configuration that runs them, the dynamic
// controllers' state and the encoded path's codecs and buffers. What an LP buys
// for its objects it buys once, so a run's set-up makes O(LPs) allocations here
// whatever it configures.
type Block struct {
	cfg   Config
	snaps []Snapshot
	ctl   []controller
	enc   []encodings
	cds   []codec.StateCodec
}

// NewBlock returns the block for n objects checkpointed under cfg, with
// encoded checkpointing under cd (codec.Off for none).
func NewBlock(cfg Config, cd codec.Config, n int) *Block {
	b := &Block{cfg: cfg.withDefaults(), snaps: make([]Snapshot, n)}
	if b.cfg.Mode == Dynamic {
		b.ctl = make([]controller, n)
	}
	if proto := codec.NewState(cd); proto != nil {
		b.enc = make([]encodings, n)
		b.cds = make([]codec.StateCodec, n)
		for i := range b.cds {
			b.cds[i] = *proto
			b.enc[i].cd = &b.cds[i]
		}
	}
	return b
}

// Bind initialises c and gives q its storage, both as the i-th of the block.
// q still needs its Init, once the object has a state, with q.Codec() for
// codec. The snapshot slot is capped at itself, so the append that outgrows
// it moves the queue rather than running into a neighbour's.
func (b *Block) Bind(i int, q *Queue, c *Checkpointer) {
	*q = Queue{snaps: b.snaps[i : i : i+1]}
	if b.enc != nil {
		q.enc = &b.enc[i]
	}
	var ctl *controller
	if b.ctl != nil {
		ctl = &b.ctl[i]
	}
	c.init(b.cfg, ctl)
}

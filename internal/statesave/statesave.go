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
// snapshots are held as encodings instead of cloned states: full images
// every codec.Config.FullEvery saves, sparse deltas in between, compressed
// when configured. A restore that pops snapshots reconstructs the restore
// point by copying the nearest full image and patching the deltas after it
// onto the copy, and RestoreInto decodes that straight into the live state:
// two passes over the state's bytes and no allocation. The oldest snapshot is
// always a full image. The rule throughout is that a full-state image is
// copied only where two copies must both survive, and a save reads what the
// event wrote: a state that is a codec.DirtyState too is asked for the regions
// it dirtied, and the queue patches the encoding it holds and builds the delta
// from those alone (see encode).
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
	// lastEnc is the full (uncompressed) encoding of the newest snapshot,
	// the base for the next delta and what RestoreInto decodes.
	lastEnc []byte
	// scratch is the recycled marshal and reconstruction buffer; deltaScratch
	// is the recycled delta-encoding buffer. Every snapshot's enc is copied
	// out of them, so neither they nor lastEnc ever alias queue storage.
	scratch      []byte
	deltaScratch []byte
	// regions is the recycled list a codec.DirtyState reports into (its bytes
	// go to scratch). unsynced is set while the live state's last marshal or
	// unmarshal was someone else's (see Queue.Unsync), so that what it would
	// report is not measured from lastEnc.
	regions  []codec.Region
	unsynced bool
	// spareFull and spareDelta hold the enc buffers of snapshots popped by
	// RestoreBefore or discarded by FossilCollect, by kind because the two
	// differ in size by orders of magnitude; pack stores the next snapshot
	// of that kind over one. A buffer is on a spare list or in a live
	// snapshot, never both.
	spareFull, spareDelta [][]byte
}

// encoded is the stored form of one snapshot of an encoded queue: a full state
// image or a delta against the previous snapshot's encoding, optionally
// compressed, and the length of the full encoding it stands for.
type encoded struct {
	enc    []byte
	delta  bool
	comp   bool
	rawLen int
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

// retire moves the enc buffer of a snapshot that is leaving the queue (or
// being re-encoded) to the spare list of its kind.
func (e *encodings) retire(s *encoded) {
	if cap(s.enc) > 0 {
		spare := e.spare(s.delta)
		*spare = append(*spare, s.enc)
	}
	s.enc = nil
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
		raw := ds.MarshalState(nil)
		first := encoded{rawLen: len(raw)}
		first.enc, first.comp = codec.Pack(cd.Config(), raw)
		e.of = append(e.of[:0], first)
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
	isDelta := e.cd.NextIsDelta() && e.lastEnc != nil
	// A full save with a Dynamic controller in full mode computes (but does
	// not store) the delta, so the controller keeps observing the ratio.
	probe := !isDelta && e.cd.ProbeNow() && e.lastEnc != nil
	e.encode(st.(codec.DeltaState), isDelta || probe)
	payload := e.lastEnc
	if isDelta {
		payload = e.deltaScratch
	} else if probe {
		// Its stored size is taken over a spare buffer that goes straight
		// back, so the probe retains nothing.
		d, _ := e.pack(e.deltaScratch, true)
		e.cd.RecordProbe(len(d))
		e.spareDelta = append(e.spareDelta, d)
	}
	stored, comp := e.pack(payload, isDelta)
	e.cd.RecordSave(len(stored), isDelta)
	e.of = append(e.of, encoded{enc: stored, delta: isDelta, comp: comp, rawLen: len(e.lastEnc)})
	return SaveResult{RawBytes: len(e.lastEnc), StoredBytes: len(stored), Delta: isDelta}
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
// nil on the codec path, where the restore point is left reconstructed in
// lastEnc for RestoreInto to decode. The strict inequality matters: a
// snapshot taken at exactly t may already include a same-time event that must
// be re-ordered after the straggler.
func (q *Queue) RestoreBefore(t vtime.Time) Snapshot {
	i := len(q.snaps)
	e := q.enc
	for i > 0 && !q.snaps[i-1].Time.Before(t) {
		i--
		vacate(&q.snaps[i])
		if e != nil {
			e.retire(&e.of[i])
		}
	}
	popped := i < len(q.snaps)
	q.snaps = q.snaps[:i]
	// The NegInf snapshot is never discarded, so i >= 1 always holds.
	if e != nil && popped {
		e.of = e.of[:i]
		// The restored encoding is the new delta base; the old base becomes
		// the scratch buffer. With nothing popped lastEnc is the head's
		// encoding already.
		e.lastEnc, e.scratch = q.rebuild(i-1), e.lastEnc
		q.syncChain()
	}
	return q.snaps[i-1]
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
	if q.enc != nil {
		q.discardEncodings(keep)
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

// discardEncodings is FossilCollect's half on the encoded path: the stored
// forms of the first n snapshots go. The new oldest snapshot must be
// self-contained. When it is a delta, the full image its chain starts from is
// among the snapshots being discarded, so that image is patched up to it where
// it lies and changes owner — no byte of the state moves. A compressed image
// cannot be patched in place: under LZ the chain is reconstructed in scratch
// and packed over one of the buffers the discarded snapshots give up (its
// anchor's, usually).
func (q *Queue) discardEncodings(n int) {
	e := q.enc
	oldest := &e.of[n]
	reanchor := oldest.delta
	var image []byte
	if reanchor {
		if e.cd.Config().Compression == codec.NoCompression {
			image = q.takeAnchor(n)
		} else {
			e.scratch = q.rebuild(n)
		}
	}
	for i := 0; i < n; i++ {
		e.retire(&e.of[i])
	}
	if reanchor {
		e.retire(oldest)
		if image == nil {
			image, oldest.comp = e.pack(e.scratch, false)
		}
		oldest.enc, oldest.delta = image, false
	}
	kept := copy(e.of, e.of[n:])
	clear(e.of[kept:])
	e.of = e.of[:kept]
	if reanchor {
		q.syncChain()
	}
}

// syncChain recounts the deltas that follow the newest full image and hands
// the count to the codec's anchor cadence. Save keeps it by itself; popping
// snapshots (an anchor among them, possibly) or re-encoding the oldest one
// changes the tail behind its back, and a cadence still counting from a popped
// anchor would let the chain a restore patches through outgrow FullEvery.
func (q *Queue) syncChain() {
	n := 0
	e := q.enc
	for i := len(e.of) - 1; e.of[i].delta; i-- {
		n++
	}
	e.cd.SetChain(n)
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

// anchor returns the index of the full image snapshot i's delta chain starts
// from (i itself when it is one).
func (q *Queue) anchor(i int) int {
	for q.enc.of[i].delta {
		i--
	}
	return i
}

// rebuild reconstructs the full, uncompressed state encoding of snapshot i
// in the scratch buffer's storage (growing it if need be): a copy of the
// nearest full image at or before i, patched with each delta after it. The
// caller decides which queue buffer the result becomes. A decode failure
// means the queue corrupted its own encodings, an invariant violation worth
// stopping the run for.
func (q *Queue) rebuild(i int) []byte {
	buf := q.enc.scratch[:0]
	for j := q.anchor(i); j <= i; j++ {
		s := &q.enc.of[j]
		part, err := codec.Unpack(s.enc, s.comp)
		if err == nil && s.delta {
			buf, err = codec.PatchDelta(buf, part)
		} else {
			buf = append(buf, part...)
		}
		if err != nil {
			panic("statesave: checkpoint chain corrupt: " + err.Error())
		}
	}
	return buf
}

// takeAnchor is rebuild without the copy, for a delta snapshot i whose full
// image is about to be discarded: it takes that image's buffer out of its
// snapshot (which keeps no encoding and must leave the queue), patches each
// delta up to i onto it in place and returns it. Only uncompressed storage
// can be patched where it lies.
func (q *Queue) takeAnchor(i int) []byte {
	of := q.enc.of
	base := q.anchor(i)
	buf := of[base].enc
	of[base].enc = nil
	for j := base + 1; j <= i; j++ {
		var err error
		if buf, err = codec.PatchDelta(buf, of[j].enc); err != nil {
			panic("statesave: checkpoint chain corrupt: " + err.Error())
		}
	}
	return buf
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
		total += len(q.enc.of[i].enc)
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
	// MinInterval and MaxInterval clamp the dynamic interval.
	MinInterval, MaxInterval int
	// Period is P: processed events between controller invocations.
	Period int
	// Margin is the relative Ec increase considered significant.
	Margin float64
}

// withDefaults fills unset fields with the defaults used in the experiments.
func (c Config) withDefaults() Config {
	if c.Interval < 1 {
		c.Interval = 1
	}
	if c.MinInterval < 1 {
		c.MinInterval = 1
	}
	if c.MaxInterval < c.MinInterval {
		c.MaxInterval = 64
	}
	if c.Period < 1 {
		c.Period = 256
	}
	if c.Margin <= 0 {
		c.Margin = 0.05
	}
	return c
}

// Checkpointer decides, per simulation object, when to checkpoint, and (in
// Dynamic mode) adapts the interval χ from the observed cost index Ec. A
// periodic checkpointer is its interval and a counter, which is all that
// OnEventProcessed reads of it. Everything else — the dynamic controller's
// ticker, transfer function, clamps and Ec sums, the adjustment count and the
// hook — is behind ctl, nil until the mode or a caller (ForceInterval, SetHook)
// needs it.
type Checkpointer struct {
	interval  int32
	sinceSave int32
	ctl       *controller
}

// controller is the part of a Checkpointer that no event reads under a
// periodic interval.
type controller struct {
	dynamic  bool
	min, max int
	ticker   control.Ticker
	transfer control.IncUnlessWorse

	// Ec accumulation for the current control period.
	saveCost  time.Duration
	coastCost time.Duration

	adjustments int64
	hook        func(oldChi, newChi int, ec time.Duration)
}

// NewCheckpointer returns a checkpointer for one object.
func NewCheckpointer(cfg Config) *Checkpointer {
	c := &Checkpointer{}
	c.init(cfg.withDefaults(), nil)
	return c
}

// init sets c up for cfg, defaults applied. ctl is where a dynamic controller's
// state goes (a Block's slot; nil allocates).
func (c *Checkpointer) init(cfg Config, ctl *controller) {
	*c = Checkpointer{interval: int32(min(cfg.Interval, math.MaxInt32))}
	if cfg.Mode != Dynamic {
		return
	}
	if ctl == nil {
		ctl = new(controller)
	}
	*ctl = controller{
		dynamic:  true,
		min:      cfg.MinInterval,
		max:      cfg.MaxInterval,
		ticker:   *control.NewTicker(cfg.Period),
		transfer: control.IncUnlessWorse{Margin: cfg.Margin},
	}
	c.ctl = ctl
}

// control returns c's controller part, making the one of a periodic
// checkpointer on first use.
func (c *Checkpointer) control() *controller {
	if c.ctl == nil {
		c.ctl = &controller{min: 1, max: int(c.interval)}
	}
	return c.ctl
}

// Interval returns the current checkpoint interval χ.
func (c *Checkpointer) Interval() int { return int(c.interval) }

// Mode returns the interval-management mode.
func (c *Checkpointer) Mode() Mode {
	if c.ctl != nil && c.ctl.dynamic {
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
// at a clamp) and the cost index Ec observed over the period — plus external
// ForceInterval adjustments (with Ec zero). Set it before the run.
func (c *Checkpointer) SetHook(fn func(oldChi, newChi int, ec time.Duration)) {
	if fn != nil || c.ctl != nil {
		c.control().hook = fn
	}
}

// OnEventProcessed is called after each forward event execution; it returns
// true when a checkpoint should be taken now. In Dynamic mode it also runs
// the control period and adjusts χ.
func (c *Checkpointer) OnEventProcessed() (saveNow bool) {
	c.sinceSave++
	if ctl := c.ctl; ctl != nil && ctl.dynamic && ctl.ticker.Tick() {
		ec := ctl.saveCost + ctl.coastCost
		old := int(c.interval)
		p := control.IntParam{Value: old, Min: ctl.min, Max: ctl.max, Step: 1}
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

// ForceInterval sets the interval to chi immediately (external runtime
// adjustment). In Dynamic mode the controller continues adapting from the
// forced value; its clamps are widened to admit chi if necessary.
func (c *Checkpointer) ForceInterval(chi int) {
	chi = min(max(chi, 1), math.MaxInt32)
	ctl := c.control()
	ctl.min = min(ctl.min, chi)
	ctl.max = max(ctl.max, chi)
	old := int(c.interval)
	c.interval = int32(chi)
	ctl.adjustments++
	if ctl.hook != nil {
		ctl.hook(old, chi, 0)
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

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
	Hash uint64

	// Codec-path storage: when the queue runs with a state codec, State is
	// nil and the snapshot lives as an encoding — a full state image or a
	// delta against the previous snapshot's encoding, optionally compressed.
	enc    []byte
	delta  bool
	comp   bool
	rawLen int
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
// copied only where two copies must both survive.
type Queue struct {
	snaps []Snapshot

	// Codec path; cd is nil when checkpoints are cloned states.
	cd *codec.StateCodec
	// lastEnc is the full (uncompressed) encoding of the newest snapshot,
	// the base for the next delta and what RestoreInto decodes.
	lastEnc []byte
	// scratch is the recycled marshal and reconstruction buffer; deltaScratch
	// is the recycled delta-encoding buffer. Every snapshot's enc is copied
	// out of them, so neither they nor lastEnc ever alias queue storage.
	scratch      []byte
	deltaScratch []byte
	// spareFull and spareDelta hold the enc buffers of snapshots popped by
	// RestoreBefore or discarded by FossilCollect, by kind because the two
	// differ in size by orders of magnitude; pack stores the next snapshot
	// of that kind over one. A buffer is on a spare list or in a live
	// snapshot, never both.
	spareFull, spareDelta [][]byte

	// spare holds retired snapshot states (clone path only): states popped by
	// RestoreBefore or discarded by FossilCollect are exclusively queue-owned
	// — the kernel always clones before mutating — so Save refills them
	// through model.Reusable instead of allocating a fresh deep copy. Its
	// length is bounded by the peak snapshot count the queue ever held.
	spare []model.State
}

// clone produces the stored copy of st for a snapshot, reusing a retired
// snapshot state when the state type supports it.
func (q *Queue) clone(st model.State) model.State {
	if r, ok := st.(model.Reusable); ok {
		if n := len(q.spare); n > 0 {
			dst := q.spare[n-1]
			q.spare[n-1] = nil
			q.spare = q.spare[:n-1]
			return r.CopyInto(dst)
		}
	}
	return st.Clone()
}

// retire returns a no-longer-restorable snapshot state to the spare list.
// Codec-path snapshots have none.
func (q *Queue) retire(st model.State) {
	if _, ok := st.(model.Reusable); ok {
		q.spare = append(q.spare, st)
	}
}

// spareEnc returns the spare list for delta or full-image buffers.
func (q *Queue) spareEnc(delta bool) *[][]byte {
	if delta {
		return &q.spareDelta
	}
	return &q.spareFull
}

// pack stores payload (a full image, or a delta when delta is set) for a
// snapshot, over a retired buffer of the same kind when there is one.
func (q *Queue) pack(payload []byte, delta bool) (enc []byte, comp bool) {
	spare := q.spareEnc(delta)
	var dst []byte
	if n := len(*spare); n > 0 {
		dst = (*spare)[n-1]
		(*spare)[n-1] = nil
		*spare = (*spare)[:n-1]
	}
	return codec.PackInto(dst, q.cd.Config(), payload)
}

// retireEnc moves the enc buffer of a snapshot that is leaving the queue (or
// being re-encoded) to the spare list of its kind. Clone-path snapshots have
// none.
func (q *Queue) retireEnc(s *Snapshot) {
	if cap(s.enc) > 0 {
		spare := q.spareEnc(s.delta)
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

// Init is NewQueue in place, for a zero Queue held by value inside its
// object's runtime.
func (q *Queue) Init(st model.State, meta Snapshot, cd *codec.StateCodec) {
	meta.Time = vtime.NegInf
	if ds, ok := st.(codec.DeltaState); ok && cd != nil {
		q.cd = cd
		raw := ds.MarshalState(nil)
		meta.enc, meta.comp = codec.Pack(cd.Config(), raw)
		meta.rawLen = len(raw)
		q.lastEnc = raw
	} else {
		meta.State = st.Clone()
		meta.rawLen = stateBytes(meta.State)
	}
	q.snaps = []Snapshot{meta}
}

// Codec returns the queue's state codec (nil when checkpoints are cloned
// states, either by configuration or because the state is not a
// codec.DeltaState).
func (q *Queue) Codec() *codec.StateCodec { return q.cd }

// Save checkpoints st: the snapshot's encoding (or clone) is taken here,
// while meta carries the bookkeeping fields. Snapshot times must be
// non-decreasing; equal times are allowed (several events may share a
// timestamp) and the later snapshot wins on restore.
func (q *Queue) Save(st model.State, meta Snapshot) SaveResult {
	if q.cd == nil {
		meta.State = q.clone(st)
		meta.rawLen = stateBytes(meta.State)
		q.snaps = append(q.snaps, meta)
		return SaveResult{RawBytes: meta.rawLen, StoredBytes: meta.rawLen}
	}
	raw := st.(codec.DeltaState).MarshalState(q.scratch[:0])
	isDelta := q.cd.NextIsDelta() && q.lastEnc != nil
	payload := raw
	if isDelta {
		q.deltaScratch = codec.AppendDelta(q.deltaScratch[:0], q.lastEnc, raw)
		payload = q.deltaScratch
	} else if q.cd.ProbeNow() && q.lastEnc != nil {
		// Full save with a Dynamic controller in full mode: compute (but do
		// not store) the delta so the controller keeps observing the ratio.
		q.deltaScratch = codec.AppendDelta(q.deltaScratch[:0], q.lastEnc, raw)
		// Its stored size is taken over a spare buffer that goes straight
		// back, so the probe retains nothing.
		d, _ := q.pack(q.deltaScratch, true)
		q.cd.RecordProbe(len(d))
		q.spareDelta = append(q.spareDelta, d)
	}
	stored, comp := q.pack(payload, isDelta)
	q.cd.RecordSave(len(stored), isDelta)
	meta.enc, meta.delta, meta.comp = stored, isDelta, comp
	meta.rawLen = len(raw)
	q.snaps = append(q.snaps, meta)
	// The marshal buffer becomes the new delta base; recycle the old base
	// (never aliased by queue storage) as the next marshal buffer.
	q.scratch = q.lastEnc
	q.lastEnc = raw
	return SaveResult{RawBytes: len(raw), StoredBytes: len(stored), Delta: isDelta}
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
	if q.cd != nil {
		st, err := live.(codec.DeltaState).UnmarshalState(q.lastEnc)
		if err != nil {
			panic("statesave: snapshot decode failed: " + err.Error())
		}
		snap.State = st
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
	for i > 0 && !q.snaps[i-1].Time.Before(t) {
		s := &q.snaps[i-1]
		q.retire(s.State)
		s.State = nil
		q.retireEnc(s)
		i--
	}
	popped := i < len(q.snaps)
	q.snaps = q.snaps[:i]
	// The NegInf snapshot is never discarded, so i >= 1 always holds.
	if q.cd != nil && popped {
		// The restored encoding is the new delta base; the old base becomes
		// the scratch buffer. With nothing popped lastEnc is the head's
		// encoding already.
		q.lastEnc, q.scratch = q.rebuild(i-1), q.lastEnc
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
	// The new oldest snapshot must be self-contained. When it is a delta, the
	// full image its chain starts from is among the snapshots being discarded,
	// so that image is patched up to it where it lies and changes owner — no
	// byte of the state moves. A compressed image cannot be patched in place:
	// under LZ the chain is reconstructed in scratch and packed over one of
	// the buffers the discarded snapshots give up (its anchor's, usually).
	oldest := &q.snaps[keep]
	reanchor := q.cd != nil && oldest.delta
	var image []byte
	if reanchor {
		if q.cd.Config().Compression == codec.NoCompression {
			image = q.takeAnchor(keep)
		} else {
			q.scratch = q.rebuild(keep)
		}
	}
	for i := 0; i < keep; i++ {
		q.retire(q.snaps[i].State)
		q.retireEnc(&q.snaps[i])
	}
	if reanchor {
		q.retireEnc(oldest)
		if image == nil {
			image, oldest.comp = q.pack(q.scratch, false)
		}
		oldest.enc, oldest.delta = image, false
	}
	n := keep
	copy(q.snaps, q.snaps[keep:])
	for i := len(q.snaps) - keep; i < len(q.snaps); i++ {
		q.snaps[i] = Snapshot{}
	}
	q.snaps = q.snaps[:len(q.snaps)-keep]
	if reanchor {
		q.syncChain()
	}
	return n
}

// syncChain recounts the deltas that follow the newest full image and hands
// the count to the codec's anchor cadence. Save keeps it by itself; popping
// snapshots (an anchor among them, possibly) or re-encoding the oldest one
// changes the tail behind its back, and a cadence still counting from a popped
// anchor would let the chain a restore patches through outgrow FullEvery.
func (q *Queue) syncChain() {
	n := 0
	for i := len(q.snaps) - 1; q.snaps[i].delta; i-- {
		n++
	}
	q.cd.SetChain(n)
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
	for q.snaps[i].delta {
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
	buf := q.scratch[:0]
	for j := q.anchor(i); j <= i; j++ {
		s := &q.snaps[j]
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
	base := q.anchor(i)
	buf := q.snaps[base].enc
	q.snaps[base].enc = nil
	for j := base + 1; j <= i; j++ {
		var err error
		if buf, err = codec.PatchDelta(buf, q.snaps[j].enc); err != nil {
			panic("statesave: checkpoint chain corrupt: " + err.Error())
		}
	}
	return buf
}

// StoredBytes sums the bytes the queue actually holds per snapshot: encoded
// sizes on the codec path, state size estimates otherwise. Migration uses it
// to cost shipping the queue's content.
func (q *Queue) StoredBytes() int {
	total := 0
	for i := range q.snaps {
		if q.cd != nil {
			total += len(q.snaps[i].enc)
		} else {
			total += q.snaps[i].rawLen
		}
	}
	return total
}

// RawBytes sums the full (unencoded) state size per snapshot, the baseline
// StoredBytes is measured against.
func (q *Queue) RawBytes() int {
	total := 0
	for i := range q.snaps {
		total += q.snaps[i].rawLen
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
// Dynamic mode) adapts the interval χ from the observed cost index Ec. The
// controller parts — ticker and transfer function — exist only in Dynamic
// mode; a periodic checkpointer is its interval and a counter.
type Checkpointer struct {
	mode      Mode
	param     control.IntParam
	sinceSave int
	ticker    *control.Ticker
	transfer  *control.IncUnlessWorse

	// Ec accumulation for the current control period.
	saveCost  time.Duration
	coastCost time.Duration

	// Adjustments counts interval changes, for the statistics report.
	Adjustments int64

	// Hook, when non-nil, observes every control decision of the dynamic
	// controller — the interval before and after (equal when saturated at a
	// clamp) and the cost index Ec observed over the period — plus external
	// ForceInterval adjustments (with Ec zero). Set it before the run.
	Hook func(oldChi, newChi int, ec time.Duration)
}

// NewCheckpointer returns a checkpointer for one object.
func NewCheckpointer(cfg Config) *Checkpointer {
	c := &Checkpointer{}
	c.Init(cfg)
	return c
}

// Init is NewCheckpointer in place, for a zero Checkpointer held by value
// inside its object's runtime. The dynamic controller's hook forwarder
// captures c, so an initialised Checkpointer must not be copied.
func (c *Checkpointer) Init(cfg Config) {
	cfg = cfg.withDefaults()
	c.mode = cfg.Mode
	c.param = control.IntParam{
		Value: cfg.Interval,
		Min:   cfg.MinInterval,
		Max:   cfg.MaxInterval,
		Step:  1,
	}
	if cfg.Mode != Dynamic {
		return
	}
	c.ticker = control.NewTicker(cfg.Period)
	// The control layer's decision hook carries the Ec sample; forward it
	// through the checkpointer's own hook, resolved at call time so callers
	// may attach after construction.
	forward := func(cost float64, from, to int) {
		if c.Hook != nil {
			c.Hook(from, to, time.Duration(cost))
		}
	}
	c.transfer = &control.IncUnlessWorse{Margin: cfg.Margin, Hook: forward}
}

// Interval returns the current checkpoint interval χ.
func (c *Checkpointer) Interval() int { return c.param.Value }

// Mode returns the interval-management mode.
func (c *Checkpointer) Mode() Mode { return c.mode }

// OnEventProcessed is called after each forward event execution; it returns
// true when a checkpoint should be taken now. In Dynamic mode it also runs
// the control period and adjusts χ.
func (c *Checkpointer) OnEventProcessed() (saveNow bool) {
	c.sinceSave++
	if c.mode == Dynamic && c.ticker.Tick() {
		old := c.param.Value
		c.transfer.Observe(float64(c.saveCost+c.coastCost), &c.param)
		if c.param.Value != old {
			c.Adjustments++
		}
		c.saveCost, c.coastCost = 0, 0
	}
	if c.sinceSave >= c.param.Value {
		c.sinceSave = 0
		return true
	}
	return false
}

// OnRestore resynchronizes the events-since-save counter after a rollback:
// coasted events since the restored snapshot count toward the next save.
func (c *Checkpointer) OnRestore(coasted int) {
	c.sinceSave = coasted
	if c.sinceSave >= c.param.Value {
		// Avoid an immediate save storm after long coasts; save at the
		// next processed event.
		c.sinceSave = c.param.Value - 1
	}
}

// ForceInterval sets the interval to chi immediately (external runtime
// adjustment). In Dynamic mode the controller continues adapting from the
// forced value; its clamps are widened to admit chi if necessary.
func (c *Checkpointer) ForceInterval(chi int) {
	if chi < 1 {
		chi = 1
	}
	if chi < c.param.Min {
		c.param.Min = chi
	}
	if chi > c.param.Max {
		c.param.Max = chi
	}
	old := c.param.Value
	c.param.Value = chi
	c.Adjustments++
	if c.Hook != nil {
		c.Hook(old, chi, 0)
	}
}

// RecordSaveCost accumulates the wall-clock cost of one checkpoint into Ec.
func (c *Checkpointer) RecordSaveCost(d time.Duration) { c.saveCost += d }

// RecordCoastCost accumulates the wall-clock cost of one coast-forward phase
// into Ec.
func (c *Checkpointer) RecordCoastCost(d time.Duration) { c.coastCost += d }

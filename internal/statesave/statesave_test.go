package statesave

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
	"unsafe"

	"gowarp/internal/codec"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// intState is a trivial model.State for queue tests.
type intState int

func (s intState) Clone() model.State { return s }

func (q *Queue) save(t vtime.Time, v int, mark int64) {
	q.Save(intState(v), Snapshot{Time: t, Mark: mark})
}

func TestQueueRestore(t *testing.T) {
	q := NewQueue(intState(0), Snapshot{}, nil)
	q.save(10, 1, 5)
	q.save(20, 2, 9)
	q.save(30, 3, 14)
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	// Restore before 25: snapshots at 30 drop, 20 is the restore point.
	s := q.RestoreBefore(25)
	if s.Time != 20 || s.State.(intState) != 2 || s.Mark != 9 {
		t.Fatalf("RestoreBefore(25) = %+v", s)
	}
	if q.Len() != 3 {
		t.Errorf("Len after restore = %d", q.Len())
	}
	// Strictness: restoring at exactly a snapshot time skips it.
	s = q.RestoreBefore(20)
	if s.Time != 10 || s.State.(intState) != 1 {
		t.Fatalf("RestoreBefore(20) = %+v", s)
	}
	// Restoring before everything lands on the initial NegInf snapshot.
	s = q.RestoreBefore(1)
	if s.Time != vtime.NegInf || s.State.(intState) != 0 || s.Mark != 0 {
		t.Fatalf("RestoreBefore(1) = %+v", s)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d, initial snapshot must survive", q.Len())
	}
}

func TestQueueEqualTimes(t *testing.T) {
	q := NewQueue(intState(0), Snapshot{}, nil)
	q.save(10, 1, 1)
	q.save(10, 2, 2) // later snapshot at the same time wins
	s := q.RestoreBefore(11)
	if s.State.(intState) != 2 {
		t.Fatalf("RestoreBefore(11) picked %+v, want the newer equal-time snapshot", s)
	}
}

func TestQueueFossilCollect(t *testing.T) {
	q := NewQueue(intState(0), Snapshot{}, nil)
	if f := q.FossilFloor(); f != vtime.PosInf {
		t.Errorf("FossilFloor with only the initial snapshot = %s", f)
	}
	for i := 1; i <= 5; i++ {
		q.save(vtime.Time(10*i), i, int64(i))
	}
	// At or below the floor (the second-oldest snapshot) nothing goes.
	if f := q.FossilFloor(); f != 10 || q.FossilCollect(f) != 0 {
		t.Errorf("FossilFloor = %s, want 10 and a no-op collection there", f)
	}
	// GVT = 35: keep the newest snapshot strictly before 35 (t=30) and
	// everything after; drop NegInf, 10, 20.
	n := q.FossilCollect(35)
	if n != 3 {
		t.Errorf("reclaimed %d, want 3", n)
	}
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
	if q.OldestMark() != 3 {
		t.Errorf("OldestMark = %d, want 3", q.OldestMark())
	}
	if f := q.FossilFloor(); f != 40 {
		t.Errorf("FossilFloor after collection = %s, want 40", f)
	}
	// A straggler at exactly GVT must still find a restore point.
	s := q.RestoreBefore(35)
	if s.Time != 30 {
		t.Fatalf("post-collect RestoreBefore(35) = %+v", s)
	}
	// Collecting with GVT at/below the oldest snapshot is a no-op.
	if n := q.FossilCollect(5); n != 0 {
		t.Errorf("reclaimed %d at low GVT, want 0", n)
	}
}

func TestQueueFossilCollectAtExactSnapshotTime(t *testing.T) {
	q := NewQueue(intState(0), Snapshot{}, nil)
	q.save(10, 1, 1)
	q.save(20, 2, 2)
	// GVT exactly 20: the t=10 snapshot must survive (straggler at 20
	// restores strictly before 20); only NegInf drops.
	if n := q.FossilCollect(20); n != 1 {
		t.Errorf("reclaimed %d, want 1", n)
	}
	s := q.RestoreBefore(20)
	if s.Time != 10 {
		t.Fatalf("RestoreBefore(20) = %+v", s)
	}
}

func TestQueueNewest(t *testing.T) {
	q := NewQueue(intState(0), Snapshot{}, nil)
	if q.Newest() != vtime.NegInf {
		t.Error("fresh queue newest must be -inf")
	}
	q.save(7, 1, 1)
	if q.Newest() != 7 {
		t.Errorf("Newest = %s", q.Newest())
	}
}

// newCheckpointer is one object's checkpointer, bound out of a block as the
// kernel binds it.
func newCheckpointer(cfg Config) *Checkpointer {
	var q Queue
	c := new(Checkpointer)
	NewBlock(cfg, codec.Config{}, 1).Bind(0, &q, c)
	return c
}

func TestCheckpointerPeriodic(t *testing.T) {
	c := newCheckpointer(Config{Mode: Periodic, Interval: 3})
	saves := 0
	for i := 0; i < 9; i++ {
		if c.OnEventProcessed() {
			saves++
		}
	}
	if saves != 3 {
		t.Errorf("saves = %d in 9 events at interval 3", saves)
	}
	if c.Interval() != 3 || c.Mode() != Periodic {
		t.Error("accessors broken")
	}
}

// TestPeriodicCheckpointerHasNoControllerParts: a periodic checkpointer builds
// no ticker or transfer function, and stays that way when a trace hook is
// offered — its interval never moves, so there is nothing to observe and
// nowhere to keep the hook.
func TestPeriodicCheckpointerHasNoControllerParts(t *testing.T) {
	c := newCheckpointer(Config{Mode: Periodic, Interval: 3})
	c.RecordSaveCost(time.Millisecond)
	c.RecordCoastCost(time.Millisecond)
	for _, fn := range []func(int, int, time.Duration){
		nil,
		func(int, int, time.Duration) { t.Error("periodic checkpointer called its hook") },
	} {
		c.SetHook(fn)
		if c.ctl != nil || c.Mode() != Periodic || c.Adjustments() != 0 {
			t.Errorf("periodic checkpointer built controller parts (hook set: %t)", fn != nil)
		}
	}
	if size := unsafe.Sizeof(*c); size > 24 {
		t.Errorf("a Checkpointer is %d bytes inline, want its interval, a counter and one pointer", size)
	}
	saves := 0
	for i := 0; i < 1000; i++ {
		if c.OnEventProcessed() {
			saves++
		}
	}
	if saves != 333 || c.Interval() != 3 || c.Adjustments() != 0 {
		t.Errorf("%d saves in 1000 events, interval %d after %d adjustments; want 333 at a fixed 3",
			saves, c.Interval(), c.Adjustments())
	}
}

func TestCheckpointerOnRestore(t *testing.T) {
	c := newCheckpointer(Config{Mode: Periodic, Interval: 4})
	c.OnEventProcessed()
	c.OnEventProcessed()
	// Rollback coasted 1 event since the restored snapshot.
	c.OnRestore(1)
	saves := 0
	for i := 0; i < 3; i++ {
		if c.OnEventProcessed() {
			saves++
		}
	}
	if saves != 1 {
		t.Errorf("saves = %d, want exactly 1 (counter resumed at 1)", saves)
	}
	// A coast at least as long as the interval must not save instantly
	// after restore, only at the next processed event.
	c2 := newCheckpointer(Config{Mode: Periodic, Interval: 2})
	c2.OnRestore(10)
	if !c2.OnEventProcessed() {
		t.Error("expected save at first event after a long coast")
	}
}

func TestCheckpointerDynamicAdapts(t *testing.T) {
	c := newCheckpointer(Config{
		Mode: Dynamic, Interval: 1, Period: 8,
	})
	// Feed a cost regime where saving is expensive and coasting free: Ec
	// decreases as the interval grows, so χ should climb.
	for i := 0; i < 400; i++ {
		c.RecordSaveCost(time.Duration(1000 / c.Interval()))
		c.OnEventProcessed()
	}
	if c.Interval() < 8 {
		t.Errorf("interval = %d, want growth toward max", c.Interval())
	}
	if c.Adjustments() == 0 {
		t.Error("no adjustments recorded")
	}
}

func TestCheckpointerDynamicBacksOff(t *testing.T) {
	c := newCheckpointer(Config{
		Mode: Dynamic, Interval: 8, Period: 8,
	})
	// Opposite regime: coast-forward cost grows superlinearly with the
	// interval (long coasts), saving is cheap. χ should not run away to max.
	for i := 0; i < 2000; i++ {
		chi := time.Duration(c.Interval())
		c.RecordCoastCost(chi * chi * 10)
		c.RecordSaveCost(100 / chi)
		c.OnEventProcessed()
	}
	if c.Interval() > 48 {
		t.Errorf("interval = %d, expected the controller to hold back", c.Interval())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := newCheckpointer(Config{})
	if c.Interval() != 1 {
		t.Errorf("default interval = %d, want 1", c.Interval())
	}
	if c.Mode() != Periodic {
		t.Error("default mode must be periodic")
	}
	if Periodic.String() != "periodic" || Dynamic.String() != "dynamic" {
		t.Error("mode names broken")
	}
}

// padState is a DeltaState for codec-path tests: a counter plus a padding
// block of which only one byte changes per step, the shape the sparse delta
// is built for.
type padState struct {
	N   int64
	Pad []byte
}

func (s *padState) Clone() model.State {
	c := &padState{N: s.N}
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return c
}

// CopyInto implements model.Reusable, mirroring the bundled apps' states, so
// the codec-equivalence tests below also exercise the recycling path on their
// cloned reference queues.
func (s *padState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*padState)
	if !ok {
		return s.Clone()
	}
	pad := d.Pad
	*d = *s
	if s.Pad != nil {
		d.Pad = append(pad[:0], s.Pad...)
	}
	return d
}

func (s *padState) step() {
	s.N++
	s.Pad[int(s.N)%len(s.Pad)]++
}

func (s *padState) MarshalState(buf []byte) []byte {
	buf = codec.AppendInt64(buf, s.N)
	buf = codec.AppendBytes(buf, s.Pad)
	return buf
}

// UnmarshalState decodes into s itself, as the bundled apps' states do.
func (s *padState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	*s = padState{N: r.Int64(), Pad: r.BytesInto(s.Pad)}
	return s, r.Err()
}

// dirty leaves s holding nothing a restore may keep: a wrong counter and a
// scribbled Pad that is longer than, shorter than or as long as it was,
// whichever way selects.
func (s *padState) dirty(way int) {
	s.N = ^s.N
	switch way % 3 {
	case 0:
		s.Pad = append(s.Pad, make([]byte, 97)...)
	case 1:
		s.Pad = s.Pad[:len(s.Pad)/3]
	}
	for i := range s.Pad {
		s.Pad[i] = 0xA5
	}
}

// resize gives Pad n bytes, keeping what fits and numbering the rest.
func (s *padState) resize(n int) {
	for len(s.Pad) < n {
		s.Pad = append(s.Pad, byte(len(s.Pad)))
	}
	s.Pad = s.Pad[:n]
}

// rewrite refills the whole of Pad from seed.
func (s *padState) rewrite(seed uint64) {
	fill := model.NewRand(seed)
	for i := range s.Pad {
		s.Pad[i] = byte(fill.Uint64())
	}
}

func (s *padState) value() *padState { return s }

// tapeState is what the tapes and benchmarks below drive: padState, which hides
// what it dirtied from the queue, or markState, which reports it.
type tapeState interface {
	codec.DeltaState
	step()
	resize(n int)
	rewrite(seed uint64)
	dirty(way int)
	value() *padState
}

// markState is padState as a codec.DirtyState: step marks what it writes, and
// whatever else writes the state makes it lose track until the kernel has
// marshalled or unmarshalled it whole. With vary set every blindEvery-th answer
// is "cannot tell" all the same, so that save marshals the whole state, and
// every third is wider than what was written; slack widens every answer by
// that many bytes of Pad on both sides.
type markState struct {
	padState
	lost       bool
	lo, hi     int // Pad[lo:hi] was written since the last synchronisation
	vary       bool
	blindEvery int
	slack      int
	asked      int // calls of MarshalDirty
	told       int // those answered
}

func (s *markState) sync() { s.lost, s.lo, s.hi = false, 0, 0 }

func (s *markState) step() {
	s.padState.step()
	i := int(s.N) % len(s.Pad)
	if s.lo == s.hi {
		s.lo, s.hi = i, i+1
	}
	s.lo, s.hi = min(s.lo, i), max(s.hi, i+1)
}

func (s *markState) resize(n int)        { s.padState.resize(n); s.lost = true }
func (s *markState) rewrite(seed uint64) { s.padState.rewrite(seed); s.lost = true }
func (s *markState) dirty(way int)       { s.padState.dirty(way); s.lost = true }

// Clone carries the marks, as the contract asks of a state that keeps any.
func (s *markState) Clone() model.State {
	c := *s
	c.padState = *s.padState.Clone().(*padState)
	return &c
}

func (s *markState) MarshalState(buf []byte) []byte {
	s.sync()
	return s.padState.MarshalState(buf)
}

func (s *markState) UnmarshalState(data []byte) (model.State, error) {
	s.sync()
	_, err := s.padState.UnmarshalState(data)
	return s, err
}

func (s *markState) MarshalDirty(data []byte, at []codec.Region) ([]byte, []codec.Region, bool) {
	if s.asked++; s.lost || s.vary && s.asked%s.blindEvery == 0 {
		return data, at, false
	}
	slack := s.slack
	if s.vary && s.asked%3 == 0 {
		slack += 1 + s.asked%11
	}
	lo, hi := max(s.lo-slack, 0), min(s.hi+slack, len(s.Pad))
	// Pad lies behind the counter and its own length prefix.
	var prefix [binary.MaxVarintLen64]byte
	padAt := 8 + binary.PutUvarint(prefix[:], uint64(len(s.Pad)))
	data = append(codec.AppendInt64(data, s.N), s.Pad[lo:hi]...)
	at = append(at, codec.Region{Len: 8}, codec.Region{Off: padAt + lo, Len: hi - lo})
	s.sync()
	s.told++
	return data, at, true
}

func (s *padState) equal(o *padState) bool {
	if s.N != o.N || len(s.Pad) != len(o.Pad) {
		return false
	}
	for i := range s.Pad {
		if s.Pad[i] != o.Pad[i] {
			return false
		}
	}
	return true
}

// TestQueueRecyclesSnapshotStates pins the checkpoint-recycling contract:
// states retired by FossilCollect and RestoreBefore refill later saves
// through model.Reusable — same structs, same Pad backing — and the
// steady-state save/collect cycle allocates nothing.
func TestQueueRecyclesSnapshotStates(t *testing.T) {
	src := &padState{Pad: make([]byte, 64)}
	q := NewQueue(src, Snapshot{}, nil)
	for i := 1; i <= 8; i++ {
		src.step()
		q.Save(src, Snapshot{Time: vtime.Time(i)})
	}
	// GVT 8 keeps the snapshot at 7 (newest strictly before) and the one at
	// 8; the initial snapshot plus times 1..6 retire to the spare list.
	if got := q.FossilCollect(8); got != 7 {
		t.Fatalf("FossilCollect reclaimed %d snapshots, want 7", got)
	}
	if n := len(q.retired()); n != 7 {
		t.Fatalf("the vacated slots hold %d states, want 7", n)
	}
	top := q.retired()[0].(*padState)
	padPtr := &top.Pad[0]
	src.step()
	q.Save(src, Snapshot{Time: 9})
	saved := q.snaps[len(q.snaps)-1].State.(*padState)
	if saved != top {
		t.Error("Save did not reuse the retired state its slot kept")
	}
	if &saved.Pad[0] != padPtr {
		t.Error("reused state did not retain its Pad backing array")
	}
	if !saved.equal(src) {
		t.Error("recycled snapshot state differs from the saved state")
	}
	// The snapshot must be an independent copy, not an alias of src.
	src.step()
	if saved.equal(src) {
		t.Error("recycled snapshot state aliases the live state")
	}
	// RestoreBefore's popped snapshots retire too.
	before := len(q.retired())
	q.RestoreBefore(9)
	if n := len(q.retired()); n != before+1 {
		t.Errorf("the vacated slots hold %d states after restore, want %d", n, before+1)
	}
	// Once warm, a save/fossil-collect cycle costs zero heap allocations.
	if n := testing.AllocsPerRun(50, func() {
		src.step()
		q.Save(src, Snapshot{Time: 100})
		q.FossilCollect(101)
	}); n != 0 {
		t.Errorf("steady-state save/collect cycle allocated %.1f times per run, want 0", n)
	}
}

// retired lists the states the vacated slots of the snapshot array keep.
func (q *Queue) retired() (states []model.State) {
	for _, s := range q.snaps[len(q.snaps):cap(q.snaps)] {
		if s.State != nil {
			states = append(states, s.State)
		}
	}
	return states
}

// TestQueueRecycleSkipsNonReusable: states without CopyInto keep the plain
// clone path and must not stay behind in the vacated slots.
func TestQueueRecycleSkipsNonReusable(t *testing.T) {
	q := NewQueue(intState(0), Snapshot{}, nil)
	q.save(1, 1, 1)
	q.save(2, 2, 2)
	q.FossilCollect(2)
	q.RestoreBefore(2)
	if n := len(q.retired()); n != 0 {
		t.Errorf("the vacated slots hold %d non-reusable states, want 0", n)
	}
}

func codecConfigs() []codec.Config {
	return []codec.Config{
		{Mode: codec.Full},
		{Mode: codec.Full, Compression: codec.LZ},
		{Mode: codec.Delta},
		{Mode: codec.Delta, Compression: codec.LZ},
		{Mode: codec.Dynamic},
		{Mode: codec.Dynamic, Compression: codec.LZ},
	}
}

// checkBuffersDisjoint asserts the codec path's ownership rule: every live
// snapshot's enc and image, the queue's lastEnc, scratch and deltaScratch and
// every spare buffer are distinct allocations, so nothing the queue writes
// later can change a stored snapshot.
func checkBuffersDisjoint(t testing.TB, q *Queue) {
	t.Helper()
	seen := map[*byte]string{}
	note := func(b []byte, what string) {
		if cap(b) == 0 {
			return
		}
		p := &b[:1][0]
		if prev, dup := seen[p]; dup {
			t.Fatalf("%s shares its buffer with %s", what, prev)
		}
		seen[p] = what
	}
	if len(q.enc.of) != len(q.snaps) {
		t.Fatalf("%d snapshots with %d encodings", len(q.snaps), len(q.enc.of))
	}
	for i := range q.enc.of {
		note(q.enc.of[i].enc, "a snapshot's enc")
		note(q.enc.of[i].image, "a snapshot's image")
	}
	note(q.enc.lastEnc, "lastEnc")
	note(q.enc.scratch, "scratch")
	note(q.enc.deltaScratch, "deltaScratch")
	for _, b := range q.enc.spareFull {
		note(b, "a spare full-image buffer")
	}
	for _, b := range q.enc.spareDelta {
		note(b, "a spare delta buffer")
	}
}

// checkAgainstTwin asserts what an encoded queue promises. Every snapshot it
// holds reconstructs to exactly the state its clone-path twin stored, by a
// walk back from a copy of lastEnc: undoing each delta snapshot's delta, and
// past a full snapshot taking up the image of the one before it; every image
// the queue stores must be what the walk has reached there. A delta snapshot
// carries its own image exactly when a full snapshot follows it — so no full
// snapshot follows a delta one that could not be walked back to, and a delta
// queue holds no whole image but lastEnc. The oldest snapshot, when it is a
// delta, holds no bytes. None keeps a decoded state beside its encoding.
func checkAgainstTwin(t testing.TB, q, twin *Queue, step int) {
	t.Helper()
	if q.Len() != twin.Len() {
		t.Fatalf("step %d: %d snapshots, twin holds %d", step, q.Len(), twin.Len())
	}
	of := q.enc.of
	if s := of[0]; s.delta && len(s.enc)+len(s.image) > 0 {
		t.Fatalf("step %d: the oldest snapshot is a delta holding %d bytes", step, len(s.enc)+len(s.image))
	}
	unpack := func(b []byte, comp bool) []byte {
		raw, err := codec.Unpack(b, comp)
		if err != nil {
			t.Fatalf("step %d: a stored form does not unpack: %v", step, err)
		}
		return raw
	}
	buf := append([]byte(nil), q.enc.lastEnc...)
	for i := len(of) - 1; i >= 0; i-- {
		if want := i+1 < len(of) && !of[i+1].delta; of[i].delta && (of[i].image != nil) != want {
			t.Fatalf("step %d: delta snapshot %d keeps an image %t, a full snapshot follows it %t", step, i, of[i].image != nil, want)
		}
		if q.snaps[i].State != nil {
			t.Fatalf("step %d: snapshot %d keeps a decoded state", step, i)
		}
		if image, comp, ok := of[i].full(); ok && !bytes.Equal(unpack(image, comp), buf) {
			t.Fatalf("step %d: snapshot %d stores an image the walk back does not reach", step, i)
		}
		var st padState
		if _, err := st.UnmarshalState(buf); err != nil {
			t.Fatalf("step %d: snapshot %d does not decode: %v", step, i, err)
		}
		if !st.equal(twin.snaps[i].State.(*padState)) {
			t.Fatalf("step %d: snapshot %d (t=%v) no longer reconstructs to the state saved", step, i, q.snaps[i].Time)
		}
		switch {
		case i == 0:
		case of[i].delta:
			var err error
			if buf, err = codec.UndoDelta(buf, unpack(of[i].enc, of[i].comp)); err != nil {
				t.Fatalf("step %d: snapshot %d's delta does not undo: %v", step, i, err)
			}
		default:
			image, comp, _ := of[i-1].full()
			buf = append(buf[:0], unpack(image, comp)...)
		}
	}
	checkBuffersDisjoint(t, q)
}

// storedAtParent is what the hiding twin's stored encodings hash to over every
// tape of TestCodecQueueRestoreEquivalence. It was re-recorded when deltas
// became reversible and the full anchors went — the stored bytes changed there
// on purpose — and holds them since: a state that does not report what it
// dirtied is stored byte for byte as one that does. It was recorded once more
// when the Dynamic rows lost their 16-save control period and their tapes were
// reshaped for the codec's 64 (tapeShape), by the commit before the period
// became a constant, running these tapes.
const storedAtParent = 0x7a711d7726c0164b

// TestCodecQueueRestoreEquivalence drives a clone-path queue and two encoded
// twins — one whose state hides what it dirtied, one whose state reports it,
// sometimes too widely and every blindEvery-th time not at all, so that save
// marshals the whole state — through the same seeded tape of saves, restores
// and fossil collections. Every restored state must match
// the clone path's, the two encoded queues must hold the same bytes, and after
// every step every snapshot still held must reconstruct to what was saved: a
// later save, restore or collection never reaches into an earlier snapshot.
func TestCodecQueueRestoreEquivalence(t *testing.T) {
	stored := fnv.New64a()
	defer func() {
		if got := stored.Sum64(); !t.Failed() && got != storedAtParent {
			t.Errorf("the hiding twin's stored encodings hash to %#x over all tapes, %#x recorded", got, uint64(storedAtParent))
		}
	}()
	for _, base := range codecConfigs() {
		t.Run(base.String()+"-"+base.Mode.String(), func(t *testing.T) {
			for _, blindEvery := range []int{1, 2, 16} {
				for _, resize := range []bool{false, true} {
					cfg := base
					// The subtests keep the names they had while this number was also
					// the codec's full-anchor cadence.
					name := fmt.Sprintf("full-every=%d,resize=%t", blindEvery, resize)
					t.Run(name, func(t *testing.T) {
						rng := model.NewRand(42)
						steps, _ := tapeShape(cfg.Mode)
						landed, switches, sum := runCodecTape(t, cfg, blindEvery, resize, steps, rng.Intn)
						stored.Write(binary.LittleEndian.AppendUint64(nil, sum))
						// The tape must have been where it claims to go.
						for _, kind := range landingKinds(cfg.Mode) {
							if landed[kind] == 0 {
								t.Errorf("no collection landed %s", landingNames[kind])
							}
						}
						if cfg.Mode == codec.Dynamic && switches < 2 {
							t.Errorf("the dynamic codec switched encoding %d times, want full and back", switches)
						}
					})
				}
			}
		})
	}
}

// FuzzCodecQueue is the same tape read from bytes: the first picks the
// configuration, each later one an operation or its argument.
func FuzzCodecQueue(f *testing.F) {
	f.Add([]byte{0x52, 0, 1, 2, 3, 9, 7, 5, 0, 0, 0, 9, 0, 0, 10, 8, 3, 7, 2})
	f.Add(append([]byte{0xA5}, bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 9, 7, 0}, 12)...))
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 2 {
			return
		}
		pick, tape := tape[0], tape[1:]
		configs := codecConfigs()
		cfg := configs[int(pick&7)%len(configs)]
		blindEvery := []int{1, 2, 4, 16}[pick>>3&3]
		// Every step re-checks every snapshot held: keep the tape short.
		// (Three queues: the clone path, a state that hides what it dirtied, one
		// that reports it; see runCodecTape.)
		runCodecTape(t, cfg, blindEvery, pick&0x20 != 0, min(len(tape), 256), func(n int) int {
			if len(tape) == 0 {
				return 0
			}
			b := tape[0]
			tape = tape[1:]
			return int(b) % n
		})
	})
}

// tapeShape is how many steps a tape of TestCodecQueueRestoreEquivalence runs
// under mode, and how rarely a tape turns rewriting on or off (at one in
// toggleOneIn of its op-11 steps). A Dynamic codec decides once every 64
// saves, four times the 16 the tapes were written for: its tapes run twice as
// long and keep each phase four times as long, so that a phase still spans a
// decision and a tape still sees several.
func tapeShape(mode codec.Mode) (steps, toggleOneIn int) {
	if mode == codec.Dynamic {
		return 1200, 16
	}
	return 600, 4
}

// The two places a fossil collection can land, by what the snapshot that
// becomes the oldest is: one that carries a full image (a full snapshot, or a
// delta one a full snapshot follows), or a delta.
const (
	landsOnImage = iota
	landsOnDelta
	landings
)

var landingNames = [landings]string{"on a full image", "on a delta"}

// landingKinds lists the landings a queue under mode makes snapshots for: a
// delta queue stores no image, a full one no delta.
func landingKinds(mode codec.Mode) []int {
	switch mode {
	case codec.Full:
		return []int{landsOnImage}
	case codec.Delta:
		return []int{landsOnDelta}
	}
	return []int{landsOnImage, landsOnDelta}
}

// landing classifies a collection that would keep snapshot k as the oldest.
func (q *Queue) landing(k int) int {
	if _, _, ok := q.enc.of[k].full(); ok {
		return landsOnImage
	}
	return landsOnDelta
}

// runCodecTape runs steps operations, drawn from intn, on a clone-path queue
// and its two encoded twins — one fed a state that hides what it dirtied (the
// whole-state marshal and compare), one fed a markState that reports it, but
// cannot tell every blindEvery-th time it is asked — and
// returns how many collections landed where, how often a Dynamic codec changed
// encoding, and a hash of every stored encoding the hiding twin held after every
// step. The reporting twin must hold the same bytes throughout. With resize set
// the state's encoding also changes length from save to save. Restores go
// through RestoreInto into a live state dirtied beforehand, on all three queues.
// Now and then the tape turns rewriting on or off: while it is on every save
// rewrites the whole state, which is what makes a Dynamic codec leave delta
// encoding, and come back once it is off; the same steps have the next save
// preceded by a marshal that is not the queue's (Unsync). A sixth of the steps are collections
// aimed at one kind of landing the mode makes after the other. An aimed
// collection waits until the queue holds a snapshot of its kind; once it has
// missed twice the tape stops popping and collecting at random, so that the
// queue grows, and after eight misses the kind is passed over (a Dynamic codec
// in delta mode stores no image to land on, in full mode no delta).
func runCodecTape(t testing.TB, cfg codec.Config, blindEvery int, resize bool, steps int, intn func(int) int) (landed [landings]int, switches int64, stored uint64) {
	ref := &padState{Pad: make([]byte, 512)}
	rq := NewQueue(ref, Snapshot{}, nil)
	// The encoded twins: lives[0] hides, lives[1] reports.
	lives := []tapeState{ref.Clone().(*padState), &markState{padState: *ref.Clone().(*padState), vary: true, blindEvery: blindEvery}}
	var qs [2]*Queue
	for i, live := range lives {
		qs[i] = NewQueue(live, Snapshot{}, codec.NewState(cfg))
		if qs[i].Codec() == nil {
			t.Fatal("codec path not engaged")
		}
	}
	q := qs[0]
	sum := fnv.New64a()

	collect := func(step int, g vtime.Time) {
		want := rq.FossilCollect(g)
		for _, q := range qs {
			if q.FossilCollect(g) != want {
				t.Fatalf("fossil counts diverge at step %d", step)
			}
		}
	}
	restore := func(step int, at vtime.Time) vtime.Time {
		ref.dirty(step + 1)
		rs := rq.RestoreInto(at, ref)
		ref = rs.State.(*padState)
		for i, q := range qs {
			lives[i].dirty(step + 2*i)
			s := q.RestoreInto(at, lives[i])
			if s.Time != rs.Time {
				t.Fatalf("restore times diverge: %v vs %v", s.Time, rs.Time)
			}
			lives[i] = s.State.(tapeState)
			if !lives[i].value().equal(ref) {
				t.Fatalf("restored state of twin %d diverges at step %d (t=%v)", i, step, at)
			}
		}
		return rs.Time
	}
	now := vtime.Time(0)
	gvt := vtime.Time(0) // restores never go below GVT, as in the kernel
	rewriting, packed := false, false
	kinds := landingKinds(cfg.Mode)
	_, toggleOneIn := tapeShape(cfg.Mode)
	aim, missed := 0, 0
	for step := 0; step < steps; step++ {
		op := intn(12)
		if missed > 2 && (op == 7 || op == 8) {
			op = 0
		}
		switch op {
		case 7: // rollback to a random earlier time (but not below GVT)
			if now <= gvt+1 {
				continue
			}
			now = restore(step, gvt+1+vtime.Time(intn(int(now-gvt))))
			if now == vtime.NegInf {
				now = 0
			}
		case 8: // fossil collect somewhere behind the head
			if now > gvt+1 {
				gvt += vtime.Time(intn(int(now - gvt)))
				collect(step, gvt)
			}
		case 9, 10: // fossil collect onto the kind of landing aimed at
			k := 1
			for k < q.Len()-1 && q.landing(k) != kinds[aim] {
				k++
			}
			if k < q.Len()-1 {
				gvt = q.snaps[k].Time + 1
				collect(step, gvt)
				if q.OldestTime() != gvt-1 {
					t.Fatalf("step %d: aimed at t=%v, oldest is t=%v", step, gvt-1, q.OldestTime())
				}
				landed[kinds[aim]]++
			} else if missed++; missed <= 8 {
				break
			}
			aim, missed = (aim+1)%len(kinds), 0
		case 11:
			if intn(toggleOneIn) == 0 {
				rewriting = !rewriting
			}
			packed = true
		default: // advance and checkpoint
			now += vtime.Time(intn(5) + 1)
			n := len(ref.Pad)
			if resize {
				n = 256 + intn(512)
			}
			for _, st := range append(lives, ref) {
				if resize {
					st.resize(n)
				}
				st.step()
				if rewriting {
					st.rewrite(uint64(step))
				}
			}
			if packed {
				// A migration capsule marshals the live state between two saves:
				// not the queue's call, so the queue has to be told.
				for i, q := range qs {
					lives[i].MarshalState(nil)
					q.Unsync()
				}
				packed = false
			}
			rq.Save(ref, Snapshot{Time: now})
			var res [2]SaveResult
			for i, q := range qs {
				res[i] = q.Save(lives[i], Snapshot{Time: now})
			}
			if res[0].StoredBytes <= 0 || res[0].RawBytes <= 0 {
				t.Fatalf("empty save result %+v", res[0])
			}
			if res[1] != res[0] {
				t.Fatalf("step %d: the reporting twin's save reads %+v, the hiding twin's %+v", step, res[1], res[0])
			}
		}
		for _, q := range qs {
			checkAgainstTwin(t, q, rq, step)
		}
		// What a state says about itself changes how the bytes are found, not
		// the bytes.
		for i, e := range q.enc.of {
			o := qs[1].enc.of[i]
			if !bytes.Equal(e.enc, o.enc) || !bytes.Equal(e.image, o.image) || e.delta != o.delta || e.comp != o.comp || e.rawLen != o.rawLen {
				t.Fatalf("step %d: snapshot %d is stored as %x (delta %t) by the hiding twin and %x (delta %t) by the reporting one",
					step, i, e.enc, e.delta, o.enc, o.delta)
			}
			sum.Write(e.enc)
			sum.Write(e.image)
			sum.Write([]byte{0, byte(e.rawLen), byte(e.rawLen >> 8)})
		}
		if a, b := q.StoredBytes(), qs[1].StoredBytes(); a != b {
			t.Fatalf("step %d: %d bytes stored by the hiding twin, %d by the reporting one", step, a, b)
		}
	}
	// Final full-chain check: restore to the oldest legal point.
	restore(steps, gvt+1)
	if m := lives[1].(*markState); steps >= 600 && !resize && (blindEvery == 1) != (m.told == 0) {
		t.Errorf("the reporting twin said what it dirtied %d times of %d at blindEvery=%d", m.told, m.asked, blindEvery)
	} else if steps >= 600 && !resize && blindEvery > 1 && (m.told < 50 || m.asked-m.told < 10) {
		t.Errorf("the reporting twin said what it dirtied %d times of %d, want both answers often", m.told, m.asked)
	}
	return landed, q.enc.cd.Switches, sum.Sum64()
}

// TestCodecQueueSteadyStateAllocs pins the codec path's buffer recycling:
// once warm, a window of 16 saves, a rollback over half of it into the live
// state and a fossil collection into the middle of the surviving deltas
// allocate nothing — every delta is stored over a retired buffer, the restore
// point is walked back to in lastEnc and decoded over the live state, and the
// collection re-encodes nothing — whether the state hides what it dirtied,
// reports it, or reports it on some saves and cannot tell on others.
func TestCodecQueueSteadyStateAllocs(t *testing.T) {
	pad := padState{Pad: make([]byte, 16<<10)}
	for name, live := range map[string]tapeState{
		"hiding":    pad.Clone().(*padState),
		"reporting": &markState{padState: *pad.Clone().(*padState)},
		"varying":   &markState{padState: *pad.Clone().(*padState), vary: true, blindEvery: 7},
	} {
		t.Run(name, func(t *testing.T) {
			q := NewQueue(live, Snapshot{}, codec.NewState(codec.Config{Mode: codec.Delta}))
			now := vtime.Time(0)
			cycle := func() {
				for i := 0; i < 16; i++ {
					now++
					live.step()
					q.Save(live, Snapshot{Time: now})
				}
				if s := q.RestoreInto(now-7, live); s.Time != now-8 || s.State != live {
					t.Fatalf("restored t=%v into %p, want %v into the live state", s.Time, s.State, now-8)
				}
				if q.FossilCollect(now-11) == 0 {
					t.Fatal("nothing collected")
				}
				now -= 8
			}
			for i := 0; i < 8; i++ {
				cycle() // warm the buffers
			}
			if n := testing.AllocsPerRun(50, cycle); n != 0 {
				t.Errorf("steady-state save/restore/collect cycle allocated %.1f times per run, want 0", n)
			}
			checkBuffersDisjoint(t, q)
			if m, ok := live.(*markState); ok && (m.told == 0 || m.vary == (m.told == m.asked)) {
				t.Errorf("the state said what it dirtied %d times of %d", m.told, m.asked)
			}
		})
	}
}

// TestCodecQueueDeltaShrinks checks the point of the exercise: sparse
// mutations store far fewer bytes under delta encoding than full snapshots.
func TestCodecQueueDeltaShrinks(t *testing.T) {
	run := func(cfg codec.Config) int {
		live := &padState{Pad: make([]byte, 4096)}
		q := NewQueue(live, Snapshot{}, codec.NewState(cfg))
		total := 0
		for i := 0; i < 64; i++ {
			live.step()
			total += q.Save(live, Snapshot{Time: vtime.Time(i + 1)}).StoredBytes
		}
		return total
	}
	full := run(codec.Config{Mode: codec.Full})
	delta := run(codec.Config{Mode: codec.Delta})
	if delta*4 > full {
		t.Fatalf("delta encoding stored %d bytes vs %d full — expected at least 4x smaller", delta, full)
	}
}

// TestCodecQueueFossilMidChain fossil-collects to a point inside the run of
// deltas and restores the new oldest snapshot, whose own delta is gone, by
// walking back to it.
func TestCodecQueueFossilMidChain(t *testing.T) {
	live := &padState{Pad: make([]byte, 256)}
	q := NewQueue(live, Snapshot{}, codec.NewState(codec.Config{Mode: codec.Delta}))
	states := map[vtime.Time]*padState{}
	for i := 1; i <= 20; i++ {
		live.step()
		tm := vtime.Time(i * 10)
		q.Save(live, Snapshot{Time: tm})
		states[tm] = live.Clone().(*padState)
	}
	// GVT 135 keeps t=130 (snapshot 13, mid-chain) as the new oldest.
	if n := q.FossilCollect(135); n == 0 {
		t.Fatal("nothing collected")
	}
	if q.OldestTime() != 130 {
		t.Fatalf("OldestTime = %v", q.OldestTime())
	}
	if s := q.enc.of[0]; !s.delta || s.enc != nil || s.image != nil {
		t.Fatalf("the oldest snapshot is stored as %d bytes of delta and %d of image, want none", len(s.enc), len(s.image))
	}
	s := q.RestoreInto(135, live)
	if s.Time != 130 || !s.State.(*padState).equal(states[130]) {
		t.Fatal("mid-chain oldest snapshot did not reconstruct")
	}
}

// TestCodecQueueFallback: a state without DeltaState must silently get the
// cloned-checkpoint path even when a codec is configured.
func TestCodecQueueFallback(t *testing.T) {
	q := NewQueue(intState(3), Snapshot{}, codec.NewState(codec.Config{Mode: codec.Delta}))
	if q.Codec() != nil {
		t.Fatal("codec engaged for a non-DeltaState state")
	}
	q.save(10, 4, 1)
	if s := q.RestoreBefore(11); s.State.(intState) != 4 {
		t.Fatalf("fallback restore = %+v", s)
	}
}

// TestBlock: the queues and checkpointers of a block share its allocations —
// a handful for any number of objects, whatever the configuration — each queue
// starts on its own slot of the block's snapshot array, and the save that
// outgrows the slot moves the queue instead of writing into its neighbour's.
func TestBlock(t *testing.T) {
	const n = 64
	cfg := Config{Mode: Dynamic, Interval: 3}
	cd := codec.Config{Mode: codec.Delta}
	qs, cs := make([]Queue, n), make([]Checkpointer, n)
	build := func() {
		b := NewBlock(cfg, cd, n)
		for i := range qs {
			b.Bind(i, &qs[i], &cs[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, build); allocs > 8 {
		t.Errorf("a block of %d dynamic, encoded objects cost %.0f allocations, want a handful", n, allocs)
	}
	for i := range qs {
		if cs[i].Mode() != Dynamic || cs[i].Interval() != 3 || qs[i].Codec() == nil {
			t.Fatalf("object %d: mode %s, interval %d, codec %v", i, cs[i].Mode(), cs[i].Interval(), qs[i].Codec())
		}
		qs[i].Init(&padState{N: int64(i)}, Snapshot{Mark: int64(i)}, qs[i].Codec())
	}
	if cap(qs[0].snaps) != 1 || cap(qs[1].snaps) != 1 {
		t.Fatalf("queues start on %d and %d slots, want one each", cap(qs[0].snaps), cap(qs[1].snaps))
	}
	qs[0].Save(&padState{N: 100}, Snapshot{Time: 1, Mark: 1})
	if qs[0].Len() != 2 || qs[1].Len() != 1 || qs[1].OldestMark() != 1 {
		t.Fatalf("after a save on queue 0: %d snapshots there, %d on queue 1 with mark %d",
			qs[0].Len(), qs[1].Len(), qs[1].OldestMark())
	}

	// A periodic, clone-path block has no controller and no encoded half to
	// give, and a state that cannot be encoded leaves the encoded half unused.
	plain := NewBlock(Config{Interval: 2}, codec.Config{}, 1)
	plain.Bind(0, &qs[0], &cs[0])
	if cs[0].ctl != nil || qs[0].enc != nil || cap(qs[0].snaps) != 1 {
		t.Errorf("a periodic clone-path object got controller %v, encodings %v, %d slots", cs[0].ctl, qs[0].enc, cap(qs[0].snaps))
	}
	NewBlock(cfg, cd, 1).Bind(0, &qs[0], &cs[0])
	qs[0].Init(intState(1), Snapshot{}, qs[0].Codec())
	if qs[0].Codec() != nil {
		t.Error("a state that is no codec.DeltaState kept the encoded path")
	}
}

// Package raid implements the RAID application of Section 7 of the paper: a
// flexible model of a RAID disk array with request generators, fork
// (striping/routing) processes, and disks. The paper's configuration — 20
// source processes generating 1000 requests each to 8 disks via 4 forks,
// partitioned onto 4 LPs — is the default.
//
// Cancellation behaviour mirrors the paper's observation that disk objects
// favor lazy cancellation while fork objects favor aggressive cancellation:
// a disk's service time is a pure function of the sub-request (cylinder,
// sector, size), so rollbacks regenerate identical replies (lazy hits); a
// fork's routing rotates a striping origin per request, so a straggler shifts
// every subsequent routing decision (lazy misses). Setting
// OrderSensitiveDisks makes disks track head position instead, flipping the
// disks toward aggressive — the knob used by the ablation benchmarks.
package raid

import (
	"encoding/binary"
	"sort"

	"gowarp/internal/codec"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// Event kinds.
const (
	// KindRequest is a source's striped request arriving at a fork.
	KindRequest uint32 = iota
	// KindSubRequest is one stripe unit sent by a fork to a disk.
	KindSubRequest
	// KindSubReply is a disk's completion notice to the source.
	KindSubReply
)

// Config parameterizes the RAID model.
type Config struct {
	Sources, Forks, Disks, LPs int
	// RequestsPerSource bounds each source's request count; 0 = unbounded.
	RequestsPerSource int
	// StripeWidth is the number of stripe units (disk sub-requests) per
	// request, parity included.
	StripeWidth int
	// Outstanding is the closed-loop window: requests a source keeps in
	// flight.
	Outstanding int
	// InterArrivalMean is the mean exponential delay before a source issues
	// its next request once the window opens.
	InterArrivalMean float64
	// Cylinders and Sectors describe the disk geometry requests range over.
	Cylinders, Sectors int
	// SeekBase, SeekPerCylinder, RotationTime and TransferTime build a
	// sub-request's service time.
	SeekBase, SeekPerCylinder, RotationTime, TransferTime vtime.Time
	// ForkDelay is the fork's routing latency per sub-request.
	ForkDelay vtime.Time
	// OrderSensitiveDisks makes service time depend on the head position
	// left by the previous request (see package comment).
	OrderSensitiveDisks bool
	// Seed drives the deterministic random streams.
	Seed uint64
	// StatePadding adds bytes to every object state so checkpointing has a
	// realistic cost.
	StatePadding int
}

func (c Config) withDefaults() Config {
	if c.Sources < 1 {
		c.Sources = 20
	}
	if c.Forks < 1 {
		c.Forks = 4
	}
	if c.Disks < 1 {
		c.Disks = 8
	}
	if c.LPs < 1 {
		c.LPs = 4
	}
	if c.StripeWidth < 1 {
		c.StripeWidth = 4
	}
	if c.StripeWidth > c.Disks {
		c.StripeWidth = c.Disks
	}
	if c.Outstanding < 1 {
		c.Outstanding = 4
	}
	if c.InterArrivalMean <= 0 {
		c.InterArrivalMean = 400
	}
	if c.Cylinders < 1 {
		c.Cylinders = 1024
	}
	if c.Sectors < 1 {
		c.Sectors = 64
	}
	if c.SeekBase <= 0 {
		c.SeekBase = 100
	}
	if c.SeekPerCylinder <= 0 {
		c.SeekPerCylinder = 1
	}
	if c.RotationTime <= 0 {
		c.RotationTime = 200
	}
	if c.TransferTime <= 0 {
		c.TransferTime = 50
	}
	if c.ForkDelay <= 0 {
		c.ForkDelay = 10
	}
	if c.Seed == 0 {
		c.Seed = 0x52414944 // "RAID"
	}
	return c
}

// Sub-request payload layout: source(4) seq(4) cyl(4) sector(2) sub(2).
func putSub(p []byte, src event.ObjectID, seq, cyl uint32, sector, sub uint16) {
	binary.LittleEndian.PutUint32(p[0:], uint32(src))
	binary.LittleEndian.PutUint32(p[4:], seq)
	binary.LittleEndian.PutUint32(p[8:], cyl)
	binary.LittleEndian.PutUint16(p[12:], sector)
	binary.LittleEndian.PutUint16(p[14:], sub)
}

func encodeSub(src event.ObjectID, seq, cyl uint32, sector, sub uint16) []byte {
	p := make([]byte, subBytes)
	putSub(p, src, seq, cyl, sector, sub)
	return p
}

const subBytes = 16

func decodeSub(p []byte) (src event.ObjectID, seq, cyl uint32, sector, sub uint16) {
	return event.ObjectID(binary.LittleEndian.Uint32(p[0:])),
		binary.LittleEndian.Uint32(p[4:]),
		binary.LittleEndian.Uint32(p[8:]),
		binary.LittleEndian.Uint16(p[12:]),
		binary.LittleEndian.Uint16(p[14:])
}

func pad(n int) []byte {
	if n <= 0 {
		return nil
	}
	return make([]byte, n)
}

// sourceState is a request generator's state.
type sourceState struct {
	Rng       model.Rand
	Issued    int64
	Completed int64
	// PendingSubs maps an outstanding request's sequence number to its
	// remaining sub-replies.
	PendingSubs map[uint32]int
	LatencySum  int64
	IssueTimes  map[uint32]vtime.Time
	// Phantoms counts transiently inconsistent sub-replies observed (and
	// later rolled back); always zero in any committed final state.
	Phantoms int64
	Pad      []byte
}

func (s *sourceState) Clone() model.State {
	c := *s
	c.PendingSubs = make(map[uint32]int, len(s.PendingSubs))
	for k, v := range s.PendingSubs {
		c.PendingSubs[k] = v
	}
	c.IssueTimes = make(map[uint32]vtime.Time, len(s.IssueTimes))
	for k, v := range s.IssueTimes {
		c.IssueTimes[k] = v
	}
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return &c
}

// CopyInto implements model.Reusable: refill dst, a retired checkpoint of the
// same type, reusing its map and Pad storage. Clone always materializes both
// maps, so the refilled maps stay non-nil like a fresh clone's.
func (s *sourceState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*sourceState)
	if !ok {
		return s.Clone()
	}
	subs, times, pad := d.PendingSubs, d.IssueTimes, d.Pad
	*d = *s
	if subs == nil {
		subs = make(map[uint32]int, len(s.PendingSubs))
	}
	clear(subs)
	for k, v := range s.PendingSubs {
		subs[k] = v
	}
	d.PendingSubs = subs
	if times == nil {
		times = make(map[uint32]vtime.Time, len(s.IssueTimes))
	}
	clear(times)
	for k, v := range s.IssueTimes {
		times[k] = v
	}
	d.IssueTimes = times
	if s.Pad != nil {
		d.Pad = append(pad[:0], s.Pad...)
	}
	return d
}

func (s *sourceState) StateBytes() int {
	return 64 + 16*len(s.PendingSubs) + 24*len(s.IssueTimes) + len(s.Pad)
}

// MarshalState implements codec.DeltaState. Map entries are emitted in
// sorted key order so the encoding is deterministic — a requirement for the
// audit oracle's byte-level checks and for delta sparsity.
func (s *sourceState) MarshalState(buf []byte) []byte {
	buf = codec.AppendUint64(buf, s.Rng.State())
	buf = codec.AppendInt64(buf, s.Issued)
	buf = codec.AppendInt64(buf, s.Completed)
	buf = codec.AppendInt64(buf, s.LatencySum)
	buf = codec.AppendInt64(buf, s.Phantoms)
	keys := make([]uint32, 0, len(s.PendingSubs))
	for k := range s.PendingSubs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf = codec.AppendUint64(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = codec.AppendUint64(buf, uint64(k))
		buf = codec.AppendInt64(buf, int64(s.PendingSubs[k]))
	}
	keys = keys[:0]
	for k := range s.IssueTimes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf = codec.AppendUint64(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = codec.AppendUint64(buf, uint64(k))
		buf = codec.AppendInt64(buf, int64(s.IssueTimes[k]))
	}
	return codec.AppendBytes(buf, s.Pad)
}

// UnmarshalState implements codec.DeltaState, decoding into s itself: every
// field is overwritten, the two maps are cleared and refilled and Pad keeps
// its backing array, as in CopyInto.
func (s *sourceState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	s.Rng = model.RandFromState(r.Uint64())
	s.Issued = r.Int64()
	s.Completed = r.Int64()
	s.LatencySum = r.Int64()
	s.Phantoms = r.Int64()
	if s.PendingSubs == nil {
		s.PendingSubs = make(map[uint32]int)
	}
	clear(s.PendingSubs)
	for n := r.Uint64(); n > 0 && r.Ok(); n-- {
		k := uint32(r.Uint64())
		s.PendingSubs[k] = int(r.Int64())
	}
	if s.IssueTimes == nil {
		s.IssueTimes = make(map[uint32]vtime.Time)
	}
	clear(s.IssueTimes)
	for n := r.Uint64(); n > 0 && r.Ok(); n-- {
		k := uint32(r.Uint64())
		s.IssueTimes[k] = vtime.Time(r.Int64())
	}
	s.Pad = r.BytesInto(s.Pad)
	return s, r.Err()
}

type source struct {
	name string
	fork event.ObjectID
	cfg  Config
	seed uint64
	// buf is the payload scratch buffer; the kernel copies payloads during
	// Send, so it is reusable immediately after each call.
	buf [subBytes]byte
}

// sub encodes a sub-request into the object's scratch buffer.
func (o *source) sub(src event.ObjectID, seq, cyl uint32, sector, sub uint16) []byte {
	putSub(o.buf[:], src, seq, cyl, sector, sub)
	return o.buf[:]
}

func (o *source) Name() string { return o.name }

func (o *source) InitialState() model.State {
	return &sourceState{
		Rng:         model.NewRand(o.seed),
		PendingSubs: make(map[uint32]int),
		IssueTimes:  make(map[uint32]vtime.Time),
		Pad:         pad(o.cfg.StatePadding),
	}
}

func (o *source) Init(ctx model.Context, st model.State) {
	s := st.(*sourceState)
	for i := 0; i < o.cfg.Outstanding; i++ {
		if !o.canIssue(s) {
			break
		}
		o.issue(ctx, s)
	}
}

func (o *source) canIssue(s *sourceState) bool {
	return o.cfg.RequestsPerSource == 0 || s.Issued < int64(o.cfg.RequestsPerSource)
}

func (o *source) issue(ctx model.Context, s *sourceState) {
	delay := vtime.Time(s.Rng.Exp(o.cfg.InterArrivalMean))
	cyl := uint32(s.Rng.Intn(o.cfg.Cylinders))
	sector := uint16(s.Rng.Intn(o.cfg.Sectors))
	seq := uint32(s.Issued)
	s.Issued++
	s.PendingSubs[seq] = o.cfg.StripeWidth
	s.IssueTimes[seq] = ctx.Now().Add(delay)
	ctx.Send(o.fork, delay, KindRequest, o.sub(ctx.Self(), seq, cyl, sector, 0))
}

func (o *source) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*sourceState)
	_, seq, _, _, _ := decodeSub(ev.Payload)
	n, ok := s.PendingSubs[seq]
	if !ok {
		// A sub-reply for a request this state never issued: transient
		// optimistic inconsistency (the issuing event was rolled back or
		// annihilated and the cancellation wave has not reached us yet).
		// Time Warp guarantees this execution will itself be undone, so
		// ignore it benignly; it never appears in the committed timeline.
		s.Phantoms++
		return
	}
	if n > 1 {
		s.PendingSubs[seq] = n - 1
		return
	}
	delete(s.PendingSubs, seq)
	s.Completed++
	s.LatencySum += int64(ctx.Now() - s.IssueTimes[seq])
	delete(s.IssueTimes, seq)
	if o.canIssue(s) {
		o.issue(ctx, s)
	}
}

// forkState is a fork's state. Next is the rotating stripe origin that makes
// routing order-sensitive.
type forkState struct {
	Next   int
	Routed int64
	Pad    []byte
}

func (s *forkState) Clone() model.State {
	c := *s
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return &c
}

// CopyInto implements model.Reusable (see sourceState.CopyInto).
func (s *forkState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*forkState)
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

func (s *forkState) StateBytes() int { return 24 + len(s.Pad) }

// appendHead appends the fixed-width front of the encoding: everything but Pad.
func (s *forkState) appendHead(buf []byte) []byte {
	buf = codec.AppendInt64(buf, int64(s.Next))
	return codec.AppendInt64(buf, s.Routed)
}

// MarshalState implements codec.DeltaState.
func (s *forkState) MarshalState(buf []byte) []byte {
	return codec.AppendBytes(s.appendHead(buf), s.Pad)
}

// MarshalDirty implements codec.DirtyState by construction, with no marks to
// keep: Execute writes the counters and never Pad, so what may have changed
// since the kernel last saw the encoding is its head. sourceState, whose maps
// change the encoding's length, does not report.
func (s *forkState) MarshalDirty(data []byte, at []codec.Region) ([]byte, []codec.Region, bool) {
	return codec.HeadRegion(s.appendHead(data), len(data), at)
}

// UnmarshalState implements codec.DeltaState (see sourceState.UnmarshalState).
func (s *forkState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	*s = forkState{Next: int(r.Int64()), Routed: r.Int64(), Pad: r.BytesInto(s.Pad)}
	return s, r.Err()
}

type fork struct {
	name  string
	disks []event.ObjectID
	cfg   Config
	buf   [subBytes]byte // Send payload scratch (see source.buf)
}

// sub encodes a sub-request into the object's scratch buffer.
func (o *fork) sub(src event.ObjectID, seq, cyl uint32, sector, sub uint16) []byte {
	putSub(o.buf[:], src, seq, cyl, sector, sub)
	return o.buf[:]
}

func (o *fork) Name() string { return o.name }

func (o *fork) InitialState() model.State {
	return &forkState{Pad: pad(o.cfg.StatePadding)}
}

func (o *fork) Init(ctx model.Context, st model.State) {}

func (o *fork) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*forkState)
	src, seq, cyl, sector, _ := decodeSub(ev.Payload)
	start := s.Next
	s.Next = (s.Next + 1) % len(o.disks)
	s.Routed++
	for u := 0; u < o.cfg.StripeWidth; u++ {
		disk := o.disks[(start+u)%len(o.disks)]
		ctx.Send(disk, o.cfg.ForkDelay, KindSubRequest,
			o.sub(src, seq, cyl, sector, uint16(u)))
	}
}

// diskState is a disk's state.
type diskState struct {
	Served int64
	Head   uint32 // current cylinder (used only when order-sensitive)
	Busy   int64  // accumulated service time, for utilization reports
	Pad    []byte
}

func (s *diskState) Clone() model.State {
	c := *s
	if s.Pad != nil {
		c.Pad = append([]byte(nil), s.Pad...)
	}
	return &c
}

// CopyInto implements model.Reusable (see sourceState.CopyInto).
func (s *diskState) CopyInto(dst model.State) model.State {
	d, ok := dst.(*diskState)
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

func (s *diskState) StateBytes() int { return 32 + len(s.Pad) }

func (s *diskState) appendHead(buf []byte) []byte {
	buf = codec.AppendInt64(buf, s.Served)
	buf = codec.AppendUint64(buf, uint64(s.Head))
	return codec.AppendInt64(buf, s.Busy)
}

// MarshalState implements codec.DeltaState.
func (s *diskState) MarshalState(buf []byte) []byte {
	return codec.AppendBytes(s.appendHead(buf), s.Pad)
}

// MarshalDirty implements codec.DirtyState (see forkState.MarshalDirty).
func (s *diskState) MarshalDirty(data []byte, at []codec.Region) ([]byte, []codec.Region, bool) {
	return codec.HeadRegion(s.appendHead(data), len(data), at)
}

// UnmarshalState implements codec.DeltaState (see sourceState.UnmarshalState).
func (s *diskState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	*s = diskState{
		Served: r.Int64(),
		Head:   uint32(r.Uint64()),
		Busy:   r.Int64(),
		Pad:    r.BytesInto(s.Pad),
	}
	return s, r.Err()
}

type disk struct {
	name string
	cfg  Config
	buf  [subBytes]byte // Send payload scratch (see source.buf)
}

// sub encodes a sub-reply into the object's scratch buffer.
func (o *disk) sub(src event.ObjectID, seq, cyl uint32, sector, sub uint16) []byte {
	putSub(o.buf[:], src, seq, cyl, sector, sub)
	return o.buf[:]
}

func (o *disk) Name() string { return o.name }

func (o *disk) InitialState() model.State {
	return &diskState{Pad: pad(o.cfg.StatePadding)}
}

func (o *disk) Init(ctx model.Context, st model.State) {}

func (o *disk) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*diskState)
	src, seq, cyl, sector, sub := decodeSub(ev.Payload)
	var seekCyls uint32
	if o.cfg.OrderSensitiveDisks {
		if cyl > s.Head {
			seekCyls = cyl - s.Head
		} else {
			seekCyls = s.Head - cyl
		}
		s.Head = cyl
	} else {
		// Service depends only on the sub-request itself: seek distance is
		// derived from the target cylinder, as if from a canonical parked
		// position. Rollback re-execution therefore regenerates identical
		// replies — the property that makes disks favor lazy cancellation.
		seekCyls = cyl / 2
	}
	service := o.cfg.SeekBase +
		o.cfg.SeekPerCylinder*vtime.Time(seekCyls) +
		o.cfg.RotationTime*vtime.Time(sector)/vtime.Time(o.cfg.Sectors) +
		o.cfg.TransferTime
	s.Served++
	s.Busy += int64(service)
	ctx.Send(src, service, KindSubReply, o.sub(src, seq, cyl, sector, sub))
}

// New builds the RAID model. Sources are spread across LPs with their LP's
// fork (intra-LP submission); disks are spread across LPs so most stripe
// units cross LPs.
func New(cfg Config) *model.Model {
	cfg = cfg.withDefaults()
	if cfg.LPs > cfg.Forks {
		cfg.LPs = cfg.Forks
	}
	m := &model.Model{Name: "raid"}

	// ID layout: sources, then forks, then disks.
	forkID := func(f int) event.ObjectID { return event.ObjectID(cfg.Sources + f) }
	diskID := func(d int) event.ObjectID { return event.ObjectID(cfg.Sources + cfg.Forks + d) }
	disks := make([]event.ObjectID, cfg.Disks)
	for d := range disks {
		disks[d] = diskID(d)
	}

	for i := 0; i < cfg.Sources; i++ {
		f := i * cfg.Forks / cfg.Sources
		m.Objects = append(m.Objects, &source{
			name: model.IndexedName("raid.source.", i),
			fork: forkID(f),
			cfg:  cfg,
			seed: cfg.Seed ^ (uint64(i)+1)*0xBF58476D1CE4E5B9,
		})
		m.Partition = append(m.Partition, f*cfg.LPs/cfg.Forks)
	}
	for f := 0; f < cfg.Forks; f++ {
		m.Objects = append(m.Objects, &fork{
			name:  model.IndexedName("raid.fork.", f),
			disks: disks,
			cfg:   cfg,
		})
		m.Partition = append(m.Partition, f*cfg.LPs/cfg.Forks)
	}
	for d := 0; d < cfg.Disks; d++ {
		m.Objects = append(m.Objects, &disk{
			name: model.IndexedName("raid.disk.", d),
			cfg:  cfg,
		})
		m.Partition = append(m.Partition, d*cfg.LPs/cfg.Disks)
	}
	return m
}

// TotalRequests returns the number of requests the configuration will
// generate (Sources × RequestsPerSource), for harness reporting.
func TotalRequests(cfg Config) int {
	cfg = cfg.withDefaults()
	return cfg.Sources * cfg.RequestsPerSource
}

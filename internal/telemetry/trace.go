// Package telemetry is the kernel's observability substrate: a per-LP,
// allocation-free structured trace recorder, and a live metrics registry
// rendered in Prometheus text-exposition format or as a plain map. It owns
// the trace's formats on disk — export.go writes JSONL and Chrome
// trace_event and reads JSONL back, all three from one per-kind field table —
// and twbench's BENCH_<figure>.json rows; the run artifact belongs to
// stats.RunRecord. The paper's thesis is that Time Warp sub-algorithms
// should be steered by sampled outputs; this package makes those outputs
// observable while the simulation runs instead of inferable after it ends.
// The kernel imports this package, so it serves nothing: the HTTP endpoint
// over the registry is package gowarp/metricshttp.
//
// Everything here is nil-safe by design: a nil *Tracer hands out nil
// *LPTrace recorders, and every recording method on a nil receiver is a
// no-op, so the disabled path costs a single pointer comparison on kernel
// hot paths.
package telemetry

import (
	"sort"
	"time"
)

// Kind identifies the type of a trace event.
type Kind uint8

const (
	// KindRollback is one rollback episode: cause, events undone,
	// coast-forward cost.
	KindRollback Kind = iota
	// KindCheckpointAdjust is a dynamic checkpoint-interval change.
	KindCheckpointAdjust
	// KindStrategySwitch is a cancellation-strategy change on one object.
	KindStrategySwitch
	// KindGVT is a completed GVT computation (recorded by the initiator).
	KindGVT
	// KindFlush is one aggregation-buffer transmission.
	KindFlush
	// KindWindowAdjust is a SAAW aggregation-window change.
	KindWindowAdjust
	// KindMigration is one object migration, recorded by the installing LP.
	KindMigration
	// KindBalance is one load-balancing controller firing.
	KindBalance
	// KindCodecSwitch is a state-codec encoding change (full↔delta) on one
	// object, decided by the codec facet's on-line controller.
	KindCodecSwitch
	// KindRoughness is one virtual-time roughness sample: the spread of the
	// LVT vector across LPs at a GVT cut (recorded by the kernel into the
	// tracer's system ring).
	KindRoughness
	// KindOptSwitch is one move of the optimism window by the adaptive
	// controller (recorded by LP 0, its one writer).
	KindOptSwitch
	// numKinds is the number of kinds; every value from it up is "unknown".
	numKinds
)

// String names the kind as it appears in exported traces.
func (k Kind) String() string { return k.format().name }

// Event is one structured trace record. It is a fixed-size, pointer-free
// value so the per-LP ring buffers never allocate while recording. The
// meaning of VT, Dur and the A–F arguments depends on Kind; the tables in
// export.go name them.
type Event struct {
	// Wall is the time since the run started.
	Wall time.Duration
	// Dur is the episode duration, for kinds that span time (rollback
	// coast-forward, GVT cycles, checkpoint-control periods).
	Dur time.Duration
	// VT is the virtual time the event is about (straggler receive time,
	// GVT value); 0 when not meaningful.
	VT int64
	// A, B, C, D, E, F are kind-specific arguments.
	A, B, C, D, E, F int64
	// LP is the recording logical process.
	LP int32
	// Object is the simulation object (or destination LP for comm events);
	// -1 when not applicable.
	Object int32
	// Kind identifies the event type.
	Kind Kind
}

// Rollback causes (Event.A for KindRollback).
const (
	CauseStraggler = iota // a positive message in the processed past
	CauseAnti             // an anti-message for a processed event
)

// DefaultCapacity is the per-LP ring capacity used when NewTracer is given
// a non-positive capacity (~64k events, a few MB per LP).
const DefaultCapacity = 1 << 16

// Tracer owns the per-LP trace recorders for one run. Construct it with
// NewTracer, hand it to the kernel via the run configuration; the kernel
// calls Bind with the LPs this process hosts, and each LP records through its
// own LPTrace with no cross-LP synchronization. After the run joins, Events
// merges the rings into one wall-clock-ordered slice.
type Tracer struct {
	capacity int
	start    time.Time
	lps      []*LPTrace // indexed by LP id; nil for LPs another process hosts
	// sys is the system ring (LP -1): a recorder for run-scoped events that
	// no one LP owns, such as roughness samples. Its one writer is the kernel's
	// roughness sample, taken by the first hosted LP at each GVT application
	// and by Run once at the end, preserving the single-writer-per-ring
	// discipline. It keeps the timeline when the LP rings wrap.
	sys *LPTrace
}

// NewTracer returns a tracer whose per-LP rings hold capacity events each
// (DefaultCapacity when capacity <= 0). When a ring fills, the oldest
// events are overwritten: a trace keeps the most recent window of activity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: capacity}
}

// Bind gives each of the logical processes lps (this process's, by LP id) a
// ring, and anchors wall-clock zero at start. The kernel calls it at run
// start; calling Bind on a nil tracer is a no-op. Rebinding discards any
// previously recorded events.
func (t *Tracer) Bind(lps []int, start time.Time) {
	if t == nil {
		return
	}
	t.start = start
	n := 0
	for _, i := range lps {
		n = max(n, i+1)
	}
	t.lps = make([]*LPTrace, n)
	for _, i := range lps {
		t.lps[i] = &LPTrace{
			lp:    int32(i),
			start: start,
			buf:   make([]Event, t.capacity),
		}
	}
	t.sys = &LPTrace{lp: -1, start: start, buf: make([]Event, t.capacity)}
}

// System returns the system ring (LP -1), where the kernel records its
// roughness samples, or nil when the tracer is nil or unbound.
func (t *Tracer) System() *LPTrace {
	if t == nil {
		return nil
	}
	return t.sys
}

// LP returns the recorder owned by logical process i, or nil when the
// tracer itself is nil or unbound, or i is not one of the LPs it was bound to
// — callers hold the result and record through it without further nil checks
// on the tracer.
func (t *Tracer) LP(i int) *LPTrace {
	if t == nil || i < 0 || i >= len(t.lps) {
		return nil
	}
	return t.lps[i]
}

// Events merges every LP's ring into one slice ordered by wall time.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var all []Event
	for _, lp := range t.lps {
		all = append(all, lp.events()...)
	}
	all = append(all, t.sys.events()...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Wall < all[j].Wall })
	return all
}

// Dropped returns the number of events overwritten across all rings.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for _, lp := range t.lps {
		n += lp.dropped()
	}
	return n + t.sys.dropped()
}

// LPTrace is one logical process's trace ring. It is written only by the
// owning LP goroutine; reads (Events) happen after the LPs join. All
// recording methods are no-ops on a nil receiver.
type LPTrace struct {
	lp    int32
	start time.Time
	buf   []Event
	n     uint64 // lifetime events recorded
}

func (t *LPTrace) record(ev Event) {
	ev.Wall = time.Since(t.start)
	ev.LP = t.lp
	t.buf[t.n%uint64(len(t.buf))] = ev
	t.n++
}

// events returns the retained events oldest-first.
func (t *LPTrace) events() []Event {
	if t == nil {
		return nil
	}
	c := uint64(len(t.buf))
	if t.n <= c {
		return t.buf[:t.n]
	}
	at := t.n % c
	out := make([]Event, 0, c)
	out = append(out, t.buf[at:]...)
	out = append(out, t.buf[:at]...)
	return out
}

// dropped returns the number of events the ring overwrote; 0 on nil.
func (t *LPTrace) dropped() int64 {
	if t == nil || t.n <= uint64(len(t.buf)) {
		return 0
	}
	return int64(t.n) - int64(len(t.buf))
}

// Len returns the number of retained events.
func (t *LPTrace) Len() int {
	if t == nil {
		return 0
	}
	if c := uint64(len(t.buf)); t.n > c {
		return int(c)
	}
	return int(t.n)
}

// Rollback records one attributed rollback episode on object obj. The
// causing message (straggler or anti-message) is identified by its source
// object src and its send/receive virtual times, which is what the cascade
// linker in internal/observe needs to attach secondary rollbacks to the
// rollback that emitted their anti-message. antis is the number of
// anti-messages this episode emitted; rolled, coasted and coastDur are the
// events undone and the coast-forward re-execution count and wall cost.
func (t *LPTrace) Rollback(obj, src int32, sendVT, recvVT int64, anti bool, rolled, coasted, antis int64, coastDur time.Duration) {
	if t == nil {
		return
	}
	cause := int64(CauseStraggler)
	if anti {
		cause = CauseAnti
	}
	t.record(Event{Kind: KindRollback, Object: obj, VT: recvVT, A: cause, B: rolled, C: coasted,
		D: int64(src), E: sendVT, F: antis, Dur: coastDur})
}

// Roughness records one virtual-time roughness sample: the GVT it was cut
// at, the min/max/mean/stddev of the finite LVTs across LPs there, the
// laggard LP holding the minimum, and the run-wide wasted-work ratio
// (rolled-back / committed events) in thousandths. Recorded into the
// tracer's system ring by the kernel.
func (t *LPTrace) Roughness(gvt, minLVT, maxLVT, meanLVT, stddevLVT int64, laggard int32, wastedPermille int64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindRoughness, Object: laggard, VT: gvt,
		A: minLVT, B: maxLVT, C: meanLVT, D: stddevLVT, E: wastedPermille})
}

// CheckpointAdjust records a checkpoint-interval change on object obj, with
// the cost index Ec observed over the control period that triggered it.
func (t *LPTrace) CheckpointAdjust(obj int32, oldChi, newChi int, ec time.Duration) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindCheckpointAdjust, Object: obj, A: int64(oldChi), B: int64(newChi), Dur: ec})
}

// StrategySwitch records a cancellation-strategy change on object obj.
// lazy is the new strategy; hitPermille is the windowed hit ratio in
// thousandths at the decision point.
func (t *LPTrace) StrategySwitch(obj int32, lazy bool, hitPermille int64) {
	if t == nil {
		return
	}
	to := int64(0)
	if lazy {
		to = 1
	}
	t.record(Event{Kind: KindStrategySwitch, Object: obj, A: to, B: hitPermille})
}

// GVTCycle records a completed GVT computation: the new value, the token
// rounds it took, and its initiation-to-completion wall time.
func (t *LPTrace) GVTCycle(gvt int64, rounds int64, dur time.Duration) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindGVT, Object: -1, VT: gvt, A: rounds, Dur: dur})
}

// Flush records one aggregation-buffer transmission to destination LP dst.
func (t *LPTrace) Flush(dst int32, cause, events, bytes int64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindFlush, Object: dst, A: cause, B: events, C: bytes})
}

// WindowAdjust records a SAAW aggregation-window change for destination dst.
func (t *LPTrace) WindowAdjust(dst int32, oldW, newW time.Duration) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindWindowAdjust, Object: dst, A: int64(oldW), B: int64(newW)})
}

// Migration records object obj arriving on this LP from LP from, carrying
// pending unprocessed events, at routing epoch epoch.
func (t *LPTrace) Migration(obj int32, from int32, pending int64, epoch int64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindMigration, Object: obj, A: int64(from), B: pending, C: epoch})
}

// BalanceStep records one load-balancing controller firing: the observed
// load imbalance in thousandths, whether the dead zone admitted actuation,
// and how many object moves it ordered.
func (t *LPTrace) BalanceStep(imbalancePermille int64, active bool, moves int64) {
	if t == nil {
		return
	}
	act := int64(0)
	if active {
		act = 1
	}
	t.record(Event{Kind: KindBalance, Object: -1, A: imbalancePermille, B: act, C: moves})
}

// OptSwitch records one move of the optimism window: the window before and
// after (0 = unbounded), the windowed wasted-work ratio in thousandths that
// drove the adaptive controller's decision and the LVT spread at the decision
// point.
func (t *LPTrace) OptSwitch(oldW, newW, wastedPermille, lvtWidth int64) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindOptSwitch, Object: -1, A: oldW, B: newW, C: wastedPermille, D: lvtWidth})
}

// CodecSwitch records a state-codec encoding change on obj: toDelta is the
// new encoding, ratioPermille the delta/full stored-bytes ratio (×1000) that
// triggered it.
func (t *LPTrace) CodecSwitch(obj int32, toDelta bool, ratioPermille int64) {
	if t == nil {
		return
	}
	d := int64(0)
	if toDelta {
		d = 1
	}
	t.record(Event{Kind: KindCodecSwitch, Object: obj, A: d, B: ratioPermille})
}

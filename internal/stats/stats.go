// Package stats collects the execution statistics the kernel and the on-line
// configuration controllers observe: event, rollback, message and
// cancellation counters plus wall-clock cost accumulators. Counters are
// written only by the owning logical process goroutine and merged after the
// LPs join, so no synchronization appears on hot paths. RunRecord (record.go)
// is what a run leaves behind, and owns the -json-out artifact's format.
// LoadBoard (load.go) holds the cross-LP message counts the balancer takes.
package stats

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"
)

// Counters is one LP's (or, after merging, the whole simulation's) tally.
type Counters struct {
	// EventsProcessed counts every event execution, including executions
	// later undone by rollback and coast-forward re-executions.
	EventsProcessed int64
	// EventsRolledBack counts event executions undone by rollbacks.
	EventsRolledBack int64
	// EventsCommitted counts events whose effects became permanent (receive
	// time below the final GVT, executed exactly once in the committed
	// history).
	EventsCommitted int64
	// CoastForwardEvents counts re-executions performed with output
	// suppressed to rebuild state after restoring a checkpoint.
	CoastForwardEvents int64

	// Rollbacks counts rollback episodes; RollbackLength accumulates the
	// number of events undone so the mean length can be reported.
	Rollbacks      int64
	RollbackLength int64
	// Stragglers and AntiStragglers split rollbacks by trigger: a positive
	// message in the past versus an anti-message annihilating a processed
	// event.
	Stragglers     int64
	AntiStragglers int64

	// StatesSaved counts checkpoints taken; StateBytes the bytes copied.
	StatesSaved int64
	StateBytes  int64
	// StateSaveTime and CoastForwardTime accumulate the wall-clock cost of
	// checkpointing and of coast-forward re-execution; their sum over a
	// control period is the cost index Ec of the checkpoint controller.
	StateSaveTime    time.Duration
	CoastForwardTime time.Duration

	// EventMsgsSent counts application events handed to the communication
	// substrate (inter-LP only; intra-LP sends are free and counted in
	// IntraLPMsgs). AntiMsgsSent counts anti-messages among them.
	EventMsgsSent int64
	AntiMsgsSent  int64
	IntraLPMsgs   int64
	// PhysicalMsgsSent counts physical messages put on the (simulated)
	// wire; with aggregation one physical message carries many events.
	PhysicalMsgsSent int64
	BytesSent        int64
	// AggregatedEvents counts events that shared a physical message with at
	// least one other event.
	AggregatedEvents int64
	// AggregateFlushes counts aggregate transmissions by cause.
	FlushWindow, FlushCapacity, FlushUrgent, FlushIdle int64

	// LazyHits / LazyMisses count rollback output comparisons (the Hit
	// Ratio's numerator and denominator pieces); CancellationSwitches
	// counts dynamic strategy changes.
	LazyHits             int64
	LazyMisses           int64
	CancellationSwitches int64

	// GVTCycles counts completed GVT computations; GVTRounds the token
	// circulations they took; GVTTime the initiation-to-completion wall
	// time (initiator only); FossilCollected the history items reclaimed.
	GVTCycles       int64
	GVTRounds       int64
	GVTTime         time.Duration
	FossilCollected int64

	// CheckpointAdjustments counts dynamic checkpoint-interval changes.
	CheckpointAdjustments int64
	// WindowAdjustments counts adaptive aggregation-window changes.
	WindowAdjustments int64

	// Migrations counts object migrations completed (recorded by the
	// installing LP); MigratedEvents the unprocessed events that travelled
	// inside migration capsules.
	Migrations     int64
	MigratedEvents int64
	// ForwardedMsgs counts events re-sent to the current owner after
	// arriving at an LP the object had already migrated away from.
	ForwardedMsgs int64
	// BalanceSteps counts load-balancing controller invocations that ordered
	// at least one object move.
	BalanceSteps int64
	// OptimismAdjustments counts adaptive-optimism controller firings that
	// moved the window.
	OptimismAdjustments int64

	// State-codec accounting. CheckpointRawBytes is the full state encoding
	// size summed over checkpoints; CheckpointBytes what was actually stored
	// after delta encoding and compression (equal when the codec is off).
	// DeltaCheckpoints counts checkpoints stored as deltas, CodecSwitches
	// the Dynamic controller's full↔delta encoding changes.
	CheckpointRawBytes int64
	CheckpointBytes    int64
	DeltaCheckpoints   int64
	CodecSwitches      int64
	// CapsuleRawBytes / CapsuleBytes are the analogous sums for migration
	// capsules (recorded by the sending LP); BatchedMigrations counts
	// objects that shared a capsule with at least one co-migrating object.
	CapsuleRawBytes   int64
	CapsuleBytes      int64
	BatchedMigrations int64
	// WireRawBytes is the pre-compression size of flushed event payloads;
	// BytesSent holds the post-compression size actually charged to the wire.
	WireRawBytes int64
	// EventPoolAllocs counts event acquisitions the per-LP pools served by
	// allocating fresh structs; EventPoolReuses those served from the free
	// list. Their ratio is the pool's steady-state hit rate.
	EventPoolAllocs int64
	EventPoolReuses int64
}

// Merge adds o into c, field by field: every counter is an int64 or a
// time.Duration, and one declared above needs no line here. It runs once per
// LP, after the workers have joined.
func (c *Counters) Merge(o *Counters) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(cv.Field(i).Int() + ov.Field(i).Int())
	}
}

// HitRatio returns the overall lazy/aggressive hit ratio, or 0 when no
// comparisons were recorded.
func (c *Counters) HitRatio() float64 {
	n := c.LazyHits + c.LazyMisses
	if n == 0 {
		return 0
	}
	return float64(c.LazyHits) / float64(n)
}

// Efficiency returns committed / processed events, the standard Time Warp
// efficiency metric (1.0 means no wasted optimism).
func (c *Counters) Efficiency() float64 {
	if c.EventsProcessed == 0 {
		return 0
	}
	return float64(c.EventsCommitted) / float64(c.EventsProcessed)
}

// WastedWorkRatio returns rolled-back / committed events — how much
// optimistic work was thrown away per unit of useful progress — or 0 when
// nothing committed.
func (c *Counters) WastedWorkRatio() float64 {
	if c.EventsCommitted == 0 {
		return 0
	}
	return float64(c.EventsRolledBack) / float64(c.EventsCommitted)
}

// MeanRollbackLength returns the average number of events undone per
// rollback, or 0 when no rollbacks occurred.
func (c *Counters) MeanRollbackLength() float64 {
	if c.Rollbacks == 0 {
		return 0
	}
	return float64(c.RollbackLength) / float64(c.Rollbacks)
}

// Report renders the counters as an aligned multi-line table.
func (c *Counters) Report() string {
	type row struct {
		k string
		v string
	}
	rows := []row{
		{"events processed", fmt.Sprint(c.EventsProcessed)},
		{"events committed", fmt.Sprint(c.EventsCommitted)},
		{"events rolled back", fmt.Sprint(c.EventsRolledBack)},
		{"coast-forward events", fmt.Sprint(c.CoastForwardEvents)},
		{"efficiency", fmt.Sprintf("%.3f", c.Efficiency())},
		{"rollbacks", fmt.Sprintf("%d (mean len %.2f)", c.Rollbacks, c.MeanRollbackLength())},
		{"states saved", fmt.Sprintf("%d (%d bytes)", c.StatesSaved, c.StateBytes)},
		{"state-save time", c.StateSaveTime.String()},
		{"coast-forward time", c.CoastForwardTime.String()},
		{"event msgs sent (inter-LP)", fmt.Sprint(c.EventMsgsSent)},
		{"anti-messages sent", fmt.Sprint(c.AntiMsgsSent)},
		{"intra-LP msgs", fmt.Sprint(c.IntraLPMsgs)},
		{"physical msgs sent", fmt.Sprint(c.PhysicalMsgsSent)},
		{"bytes sent", fmt.Sprint(c.BytesSent)},
		{"aggregated events", fmt.Sprint(c.AggregatedEvents)},
		{"flushes (win/cap/urg/idle)", fmt.Sprintf("%d/%d/%d/%d", c.FlushWindow, c.FlushCapacity, c.FlushUrgent, c.FlushIdle)},
		{"lazy hits / misses", fmt.Sprintf("%d/%d (HR %.3f)", c.LazyHits, c.LazyMisses, c.HitRatio())},
		{"cancellation switches", fmt.Sprint(c.CancellationSwitches)},
		{"checkpoint adjustments", fmt.Sprint(c.CheckpointAdjustments)},
		{"window adjustments", fmt.Sprint(c.WindowAdjustments)},
		{"migrations", fmt.Sprintf("%d (%d events carried)", c.Migrations, c.MigratedEvents)},
		{"forwarded msgs", fmt.Sprint(c.ForwardedMsgs)},
		{"balance steps", fmt.Sprint(c.BalanceSteps)},
		{"optimism adjustments", fmt.Sprint(c.OptimismAdjustments)},
		{"checkpoint bytes", fmt.Sprintf("%d stored / %d raw (%d deltas, %d switches)",
			c.CheckpointBytes, c.CheckpointRawBytes, c.DeltaCheckpoints, c.CodecSwitches)},
		{"capsule bytes", fmt.Sprintf("%d stored / %d raw (%d batched)",
			c.CapsuleBytes, c.CapsuleRawBytes, c.BatchedMigrations)},
		{"GVT cycles", fmt.Sprintf("%d (%d rounds, %s)", c.GVTCycles, c.GVTRounds, c.GVTTime)},
		{"fossils collected", fmt.Sprint(c.FossilCollected)},
		{"event pool", fmt.Sprintf("%d allocs / %d reuses", c.EventPoolAllocs, c.EventPoolReuses)},
	}
	w := 0
	for _, r := range rows {
		if len(r.k) > w {
			w = len(r.k)
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", w, r.k, r.v)
	}
	return b.String()
}

// PerObject records a handful of per-simulation-object observations used by
// the analysis tooling (which objects favor lazy cancellation, final
// checkpoint intervals, …).
type PerObject struct {
	Name      string
	Rollbacks int64
	// HitRatio is the lazy hit ratio over the selector's window — the last
	// FilterDepth output comparisons — and Comparisons how many it has seen
	// in all: a ratio over a handful is noise.
	HitRatio           float64
	Comparisons        int64
	FinalStrategy      string
	FinalCheckpointInt int
}

// SortPerObject orders the slice by name for deterministic reports.
func SortPerObject(s []PerObject) {
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
}

// WorkerStats records one dispatcher worker's scheduling tally: how many
// events it executed,
// how much wall-clock it spent executing (utilization = BusySeconds divided
// by the run's elapsed seconds), how many LPs it owned at the end, how many
// LP adoptions the on-line remap controller handed it, in how many rounds it
// executed nothing because its next event lay too far ahead of the rank's
// other workers (the dispatcher's coupling limit), and its event pool's
// allocation/reuse split (pools are per-worker, so the per-LP pool counters
// stay zero).
type WorkerStats struct {
	Worker          int     `json:"worker"`
	Events          int64   `json:"events"`
	BusySeconds     float64 `json:"busy_seconds"`
	OwnedLPs        int     `json:"owned_lps"`
	Adoptions       int64   `json:"adoptions"`
	HeldRounds      int64   `json:"held_rounds"`
	EventPoolAllocs int64   `json:"event_pool_allocs"`
	EventPoolReuses int64   `json:"event_pool_reuses"`
}

// LinkStats is the system-call tally of one rank's link to and from one peer
// rank over a socket transport (comm.TCP): how often the socket was read, how
// many of those reads found nothing, how often it was written, how many of
// those writes it refused in part or whole, the bytes each way, and the
// smoothed cost of one write system call, which is what decides how long a
// link's frames wait for company, and whether the inbound link has ended: the
// peer half-closed or the link failed, so nothing more will be read.
// Wall-clock-dependent, like WorkerStats.
type LinkStats struct {
	Peer        int   `json:"peer"`
	Reads       int64 `json:"reads"`
	EmptyReads  int64 `json:"empty_reads"`
	BytesIn     int64 `json:"bytes_in"`
	Writes      int64 `json:"writes"`
	ShortWrites int64 `json:"short_writes"`
	BytesOut    int64 `json:"bytes_out"`
	WriteCostNS int64 `json:"write_cost_ns"`
	Ended       bool  `json:"ended"`
}

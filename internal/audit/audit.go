// Package audit implements the kernel's opt-in runtime invariant auditor.
//
// An Auditor is handed to the kernel through core.Config.Audit and watches
// the run from the inside: every delivery, execution, rollback, commit, GVT
// application and anti-message is checked on-line against the Time Warp
// invariants that must hold no matter how the on-line controllers
// reconfigure the kernel mid-run:
//
//   - commit safety: an event is committed or fossil-collected only when its
//     receive time is strictly below the GVT bound that justified it, and the
//     committed sequence of each object is strictly increasing;
//   - GVT soundness: GVT never regresses on any LP, never rises above an
//     object's unprocessed minimum or unsent lazy minimum, and every
//     completed token carries a non-negative white-message count and minima
//     at or above the previous GVT;
//   - execution order: each object's processed-event sequence is strictly
//     increasing in the kernel's total event order between rollbacks;
//   - cancellation pairing: every anti-message annihilates a previously sent
//     positive message exactly once, and no orphan anti-message survives
//     fossil collection or the end of the run;
//   - message conservation: every event handed to the aggregation layer is
//     either delivered, still buffered, or still in flight when the LPs
//     stop — aggregation neither drops nor duplicates events;
//   - state integrity: a restored checkpoint hashes identically to the state
//     originally saved (catching models whose Clone is not a deep copy), and
//     fossil collection always retains a snapshot at or below GVT;
//   - event holders: every event an LP's queues reach has exactly as many
//     holders as those queues have references to it, so none is recycled under
//     a holder, leaked by one, or held from two LPs.
//
// Everything here is nil-safe by design: a nil *Auditor hands out nil
// *LPAudit and *ObjectAudit recorders, and every checking method on a nil
// receiver is a no-op, so the disabled path costs one pointer comparison at
// each hook site — the same contract the telemetry layer established.
package audit

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"gowarp/internal/event"
	"gowarp/internal/pq"
	"gowarp/internal/statesave"
	"gowarp/internal/vtime"
)

// Invariant names carried by Violations. Each names the property that was
// broken, not the hook that noticed it.
const (
	InvPrematureCommit  = "premature-commit"  // committed/fossil-collected at or above the GVT bound
	InvCommitOrder      = "commit-order"      // an object's committed sequence regressed
	InvGVTMonotone      = "gvt-monotone"      // GVT regressed on an LP
	InvGVTFloor         = "gvt-floor"         // GVT above an object's unprocessed or unsent minimum
	InvGVTToken         = "gvt-token"         // token count negative or minima below the previous GVT
	InvExecOrder        = "exec-order"        // processed sequence regressed without a rollback
	InvExecBelowGVT     = "exec-below-gvt"    // executed an event below GVT
	InvArrivalBelowGVT  = "arrival-below-gvt" // a message arrived below the receiver's GVT
	InvRollbackBelowGVT = "rollback-below-gvt"
	InvAntiUnmatched    = "anti-unmatched" // anti-message without an outstanding positive
	InvDuplicateSend    = "duplicate-send" // two positive messages with one identity
	InvOrphanAnti       = "orphan-anti"    // an anti-message never annihilated its positive
	InvConservation     = "msg-conservation"
	InvPacketCount      = "packet-count" // aggregate header count != decoded events
	InvLostEvent        = "lost-event"   // an undelivered event at or below the end time
	InvSnapshotHash     = "snapshot-hash"
	InvRestoreOrder     = "restore-order" // restored snapshot not strictly before the straggler
	InvFossilFloor      = "fossil-floor"  // no snapshot at or below GVT retained
	InvStatsIdentity    = "stats-identity"
	InvMigration        = "migration"   // a migrated object lost events or state in transit
	InvLocalMin         = "local-min"   // the LP's GVT contribution differs from the scan over every hosted object
	InvFossilSkip       = "fossil-skip" // fossil collection passed over an object whose history it would have shrunk
	InvHolders          = "holders"     // an event's holder count differs from the references its LP's queues hold
)

// Violation is one observed invariant breach.
type Violation struct {
	// Invariant is one of the Inv* names above.
	Invariant string
	// LP is the logical process that observed the breach.
	LP int
	// Object is the simulation object involved, or -1 for LP- or run-level
	// invariants.
	Object event.ObjectID
	// Detail is a human-readable account of the breach.
	Detail string
}

func (v Violation) String() string {
	if v.Object < 0 {
		return fmt.Sprintf("[%s] LP%d: %s", v.Invariant, v.LP, v.Detail)
	}
	return fmt.Sprintf("[%s] LP%d obj %d: %s", v.Invariant, v.LP, v.Object, v.Detail)
}

// maxViolations bounds the stored Violation list; a genuinely broken kernel
// produces the same breach millions of times and only the first few matter.
const maxViolations = 64

// Auditor checks Time Warp invariants during one kernel run. Create one with
// New, place it in core.Config.Audit, and inspect it after Run returns. An
// Auditor must not be reused across runs: Bind resets it for the run that is
// starting.
type Auditor struct {
	endTime   vtime.Time
	lps       []*LPAudit
	led       ledger
	prunedGVT atomic.Int64
	finChecks int64

	mu        sync.Mutex
	violation []Violation
	dropped   int64
}

// New returns an Auditor ready to be placed in core.Config.Audit.
func New() *Auditor { return &Auditor{} }

// Bind prepares the auditor for a run over numLPs logical processes ending
// at endTime. The kernel calls it once before the LPs start; a nil receiver
// is a no-op.
func (a *Auditor) Bind(numLPs int, endTime vtime.Time) {
	if a == nil {
		return
	}
	a.endTime = endTime
	a.lps = make([]*LPAudit, numLPs)
	for i := range a.lps {
		a.lps[i] = &LPAudit{a: a, lp: i, gvt: vtime.NegInf}
	}
	a.led.reset()
	a.prunedGVT.Store(int64(vtime.NegInf))
	a.finChecks = 0
	a.mu.Lock()
	a.violation = nil
	a.dropped = 0
	a.mu.Unlock()
}

// LP returns the per-LP recorder for logical process i, or nil when the
// auditor itself is nil (auditing disabled).
func (a *Auditor) LP(i int) *LPAudit {
	if a == nil || i < 0 || i >= len(a.lps) {
		return nil
	}
	return a.lps[i]
}

func (a *Auditor) record(v Violation) {
	a.mu.Lock()
	if len(a.violation) < maxViolations {
		a.violation = append(a.violation, v)
	} else {
		a.dropped++
	}
	a.mu.Unlock()
}

// Violations returns a copy of the recorded violations (at most
// maxViolations; see Dropped for the overflow count).
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Violation(nil), a.violation...)
}

// Dropped returns how many violations were discarded after the stored list
// filled up.
func (a *Auditor) Dropped() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// Checks returns the total number of invariant checks performed. Call it
// only after the run has completed; the per-LP counters are unsynchronized
// by design.
func (a *Auditor) Checks() int64 {
	if a == nil {
		return 0
	}
	n := a.finChecks
	for _, l := range a.lps {
		n += l.checks
	}
	return n
}

// Err returns nil when every check passed, or an error summarizing the
// violations otherwise.
func (a *Auditor) Err() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.violation) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s)", int64(len(a.violation))+a.dropped)
	for i, v := range a.violation {
		if i == 3 {
			b.WriteString("; ...")
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return errors.New(b.String())
}

// Report renders a human-readable audit summary.
func (a *Auditor) Report() string {
	if a == nil {
		return "audit: disabled\n"
	}
	a.mu.Lock()
	vs := append([]Violation(nil), a.violation...)
	dropped := a.dropped
	a.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d checks, %d violation(s)", a.Checks(), int64(len(vs))+dropped)
	if dropped > 0 {
		fmt.Fprintf(&b, " (%d not shown)", dropped)
	}
	b.WriteByte('\n')
	for _, v := range vs {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// maybePrune discards ledger entries for positive messages now committed
// below g; at most one LP performs the scan per distinct GVT value.
func (a *Auditor) maybePrune(g vtime.Time) {
	for {
		cur := a.prunedGVT.Load()
		if int64(g) <= cur {
			return
		}
		if a.prunedGVT.CompareAndSwap(cur, int64(g)) {
			a.led.prune(g)
			return
		}
	}
}

// FinishRun performs the end-of-run conservation check after all LP
// goroutines have joined: every event handed to the communication substrate
// must have been delivered, or still sit in an aggregation buffer or an
// undrained inbox. buffered is the sum of Endpoint.Buffered() over all LPs;
// undelivered is the number of events decoded out of the leftover inbox
// packets.
func (a *Auditor) FinishRun(buffered, undelivered int64) {
	if a == nil {
		return
	}
	a.finChecks++
	var sent, recvd int64
	for _, l := range a.lps {
		sent += l.sentInter
		recvd += l.recvInter
	}
	if sent != recvd+buffered+undelivered {
		a.record(Violation{Invariant: InvConservation, LP: -1, Object: -1,
			Detail: fmt.Sprintf("sent %d inter-LP events but delivered %d + buffered %d + in-flight %d",
				sent, recvd, buffered, undelivered)})
	}
}

// LostEvent records an undelivered event found after the LPs stopped whose
// receive time is within the simulated horizon — an event the kernel should
// have executed but lost.
func (a *Auditor) LostEvent(lp int, ev *event.Event, where string) {
	if a == nil {
		return
	}
	a.finChecks++
	if ev.RecvTime.After(a.endTime) {
		return
	}
	a.record(Violation{Invariant: InvLostEvent, LP: lp, Object: ev.Receiver,
		Detail: fmt.Sprintf("event @%s (sender %d id %d) left %s at end of run (end time %s)",
			ev.RecvTime, ev.Sender, ev.ID, where, a.endTime)})
}

// LPAudit is the per-logical-process face of the Auditor. All methods are
// nil-safe; each is called only from the owning LP goroutine.
type LPAudit struct {
	a         *Auditor
	lp        int
	gvt       vtime.Time
	checks    int64
	sentInter int64
	recvInter int64
}

// Object returns the recorder for one simulation object owned by this LP,
// or nil when auditing is disabled.
func (l *LPAudit) Object(id event.ObjectID) *ObjectAudit {
	if l == nil {
		return nil
	}
	return &ObjectAudit{l: l, id: id}
}

// Route checks an outgoing message (positive or anti) at the moment the LP
// routes it, maintaining the global send ledger that pairs every
// anti-message with its positive. remote reports whether the message crosses
// an LP boundary (and therefore the communication substrate).
func (l *LPAudit) Route(ev *event.Event, remote bool) {
	if l == nil {
		return
	}
	l.checks++
	if remote {
		l.sentInter++
	}
	id := pq.IdentityOf(ev)
	if ev.IsAnti() {
		if !l.a.led.anti(id) {
			l.a.record(Violation{Invariant: InvAntiUnmatched, LP: l.lp, Object: ev.Receiver,
				Detail: fmt.Sprintf("anti-message @%s (sender %d id %d) has no outstanding positive", ev.RecvTime, ev.Sender, ev.ID)})
		}
		return
	}
	if !l.a.led.send(id, ev.RecvTime) {
		l.a.record(Violation{Invariant: InvDuplicateSend, LP: l.lp, Object: ev.Receiver,
			Detail: fmt.Sprintf("positive message @%s (sender %d id %d) sent twice", ev.RecvTime, ev.Sender, ev.ID)})
	}
}

// Forward checks an event re-sent to the current owner after arriving at an
// LP the target object had migrated away from. The event re-enters the
// communication substrate, so the conservation ledger counts one more
// inter-LP send (it will be decoded — and counted received — a second time);
// the duplicate-send ledger is deliberately not touched, because the
// message's identity is already outstanding from its original Route.
func (l *LPAudit) Forward(ev *event.Event) {
	if l == nil {
		return
	}
	l.checks++
	l.sentInter++
}

// MigrateOut checks an object being packed for migration to LP to with
// pending unprocessed events and (when hashing is on) state hash hash. The
// capsule's contents bypass the message ledgers — they never re-enter the
// substrate as individual events — so departure only notes the check; the
// matching MigrateIn on the destination verifies nothing was lost in transit.
func (l *LPAudit) MigrateOut(id event.ObjectID, to, pending int, hash uint64) {
	if l == nil {
		return
	}
	l.checks++
}

// MigrateIn checks a migrated object just installed on this LP against what
// the source packed: the unprocessed-event count and the state hash must
// survive the move bit-for-bit. packedHash 0 means hashing was off at pack
// time and the comparison is skipped.
func (l *LPAudit) MigrateIn(id event.ObjectID, from, packedPending, installedPending int, packedHash, installedHash uint64) {
	if l == nil {
		return
	}
	l.checks++
	if packedPending != installedPending {
		l.a.record(Violation{Invariant: InvMigration, LP: l.lp, Object: id,
			Detail: fmt.Sprintf("capsule from LP%d packed %d pending events, installed %d", from, packedPending, installedPending)})
	}
	if packedHash != 0 && packedHash != installedHash {
		l.a.record(Violation{Invariant: InvMigration, LP: l.lp, Object: id,
			Detail: fmt.Sprintf("capsule from LP%d packed state hash %#x, installed %#x", from, packedHash, installedHash)})
	}
}

// Adopt rebinds a migrated object's recorder to this LP, preserving the
// execution- and commit-order trackers so the strictly-increasing sequence
// invariants keep holding across the move. A nil prev (auditing disabled, or
// the object never had a recorder) yields a fresh recorder.
func (l *LPAudit) Adopt(prev *ObjectAudit, id event.ObjectID) *ObjectAudit {
	if l == nil {
		return nil
	}
	o := &ObjectAudit{l: l, id: id}
	if prev != nil {
		o.lastExec, o.hasExec = prev.lastExec, prev.hasExec
		o.lastCommit, o.hasCommit = prev.lastCommit, prev.hasCommit
	}
	return o
}

// Packet checks one received event aggregate: the decoded event count must
// match the count the sender stamped into the header.
func (l *LPAudit) Packet(decoded, declared int) {
	if l == nil {
		return
	}
	l.checks++
	l.recvInter += int64(decoded)
	if decoded != declared {
		l.a.record(Violation{Invariant: InvPacketCount, LP: l.lp, Object: -1,
			Detail: fmt.Sprintf("aggregate declared %d events, decoded %d", declared, decoded)})
	}
}

// ApplyGVT checks a GVT application on this LP: the new estimate must not
// regress. It also advances the send-ledger pruning horizon.
func (l *LPAudit) ApplyGVT(g vtime.Time) {
	if l == nil {
		return
	}
	l.checks++
	if g.Before(l.gvt) {
		l.a.record(Violation{Invariant: InvGVTMonotone, LP: l.lp, Object: -1,
			Detail: fmt.Sprintf("GVT regressed from %s to %s", l.gvt, g)})
	}
	l.gvt = g
	l.a.maybePrune(g)
}

// GVTRound checks a token observed by the initiator: the outstanding white
// message count can never be negative, and the two minima folded into the
// token can never undercut the previous GVT.
func (l *LPAudit) GVTRound(count int64, m, mmsg vtime.Time) {
	if l == nil {
		return
	}
	l.checks++
	if count < 0 {
		l.a.record(Violation{Invariant: InvGVTToken, LP: l.lp, Object: -1,
			Detail: fmt.Sprintf("token white-message count %d < 0", count)})
	}
	if m.Before(l.gvt) || mmsg.Before(l.gvt) {
		l.a.record(Violation{Invariant: InvGVTToken, LP: l.lp, Object: -1,
			Detail: fmt.Sprintf("token minima (M %s, MMsg %s) below previous GVT %s", m, mmsg, l.gvt)})
	}
}

// LocalMin cross-checks the LP's contribution to GVT, which the kernel takes
// from its range of the schedule tree and its list of objects with pending
// lazy outputs, against the same minimum scanned over every hosted object.
func (l *LPAudit) LocalMin(fast, full vtime.Time) {
	if l == nil {
		return
	}
	l.checks++
	if fast != full {
		l.a.record(Violation{Invariant: InvLocalMin, LP: l.lp, Object: -1,
			Detail: fmt.Sprintf("local minimum %s from the schedule tree and lazy list, %s from the full scan", fast, full)})
	}
}

// Holders checks one event at a GVT application: refs is how many references
// to it the kernel found in its LP's queues — input queues, output-queue
// records and their generation stamps, orphan tables, the deferred list — and
// must equal the event's holder count. Fewer holders means a queue will read
// the event after its recycling; more means a release was lost or another LP
// holds it too.
func (l *LPAudit) Holders(ev *event.Event, refs int) {
	if l == nil {
		return
	}
	l.checks++
	if h := ev.Holders(); h != refs {
		l.a.record(Violation{Invariant: InvHolders, LP: l.lp, Object: ev.Receiver,
			Detail: fmt.Sprintf("%s has %d holder(s) but this LP's queues refer to it %d time(s)", ev, h, refs)})
	}
}

// FinishDeferred checks the intra-LP deferred queue after the LPs stopped:
// anything still queued must lie beyond the simulated horizon.
func (l *LPAudit) FinishDeferred(evs []*event.Event) {
	if l == nil {
		return
	}
	for _, ev := range evs {
		l.a.LostEvent(l.lp, ev, "the intra-LP deferred queue")
	}
}

// ObjectAudit is the per-simulation-object face of the Auditor. All methods
// are nil-safe; each is called only from the owning LP goroutine.
//
// The order trackers are by-value copies (event.Key), never pointers: the
// events they remember belong to kernel queues and may be annihilated or
// recycled into an event pool while the tracker outlives them.
type ObjectAudit struct {
	l          *LPAudit
	id         event.ObjectID
	lastExec   event.Event
	hasExec    bool
	lastCommit event.Event
	hasCommit  bool
}

// Deliver checks a message arriving at the object's input queue: nothing may
// arrive below the LP's last applied GVT.
func (o *ObjectAudit) Deliver(ev *event.Event) {
	if o == nil {
		return
	}
	o.l.checks++
	if ev.RecvTime.Before(o.l.gvt) {
		o.l.a.record(Violation{Invariant: InvArrivalBelowGVT, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("message @%s (sender %d id %d sign %s) arrived below GVT %s",
				ev.RecvTime, ev.Sender, ev.ID, ev.Sign, o.l.gvt)})
	}
}

// Execute checks an event about to be executed: the processed sequence must
// be strictly increasing in the kernel's total order between rollbacks, and
// no event below GVT may execute.
func (o *ObjectAudit) Execute(ev *event.Event) {
	if o == nil {
		return
	}
	o.l.checks++
	if o.hasExec && event.Compare(ev, &o.lastExec) <= 0 {
		o.l.a.record(Violation{Invariant: InvExecOrder, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("executed @%s (sender %d id %d) after @%s (sender %d id %d) without a rollback",
				ev.RecvTime, ev.Sender, ev.ID, o.lastExec.RecvTime, o.lastExec.Sender, o.lastExec.ID)})
	}
	if ev.RecvTime.Before(o.l.gvt) {
		o.l.a.record(Violation{Invariant: InvExecBelowGVT, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("executed @%s below GVT %s", ev.RecvTime, o.l.gvt)})
	}
	o.lastExec, o.hasExec = ev.Key(), true
}

// Commit checks one event being committed under GVT bound g: it must lie
// strictly below g and extend the committed sequence monotonically.
func (o *ObjectAudit) Commit(ev *event.Event, g vtime.Time) {
	if o == nil {
		return
	}
	o.l.checks++
	if !ev.RecvTime.Before(g) {
		o.l.a.record(Violation{Invariant: InvPrematureCommit, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("committed @%s at or above GVT bound %s", ev.RecvTime, g)})
	}
	if o.hasCommit && event.Compare(ev, &o.lastCommit) <= 0 {
		o.l.a.record(Violation{Invariant: InvCommitOrder, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("committed @%s (sender %d id %d) after @%s (sender %d id %d)",
				ev.RecvTime, ev.Sender, ev.ID, o.lastCommit.RecvTime, o.lastCommit.Sender, o.lastCommit.ID)})
	}
	o.lastCommit, o.hasCommit = ev.Key(), true
}

// RollbackStart checks the straggler (positive or anti) that triggered a
// rollback: history below GVT is committed and must never be undone.
func (o *ObjectAudit) RollbackStart(straggler *event.Event) {
	if o == nil {
		return
	}
	o.l.checks++
	if straggler.RecvTime.Before(o.l.gvt) {
		o.l.a.record(Violation{Invariant: InvRollbackBelowGVT, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("rollback to @%s below GVT %s", straggler.RecvTime, o.l.gvt)})
	}
}

// Restore checks the checkpoint chosen to recover from straggler: it must
// lie strictly before the straggler, and the stored state must hash exactly
// as it did when saved — a mismatch means something mutated a snapshot in
// place, almost always a model State.Clone that is not a deep copy.
func (o *ObjectAudit) Restore(straggler *event.Event, snap statesave.Snapshot) {
	if o == nil {
		return
	}
	o.l.checks++
	if !snap.Time.Before(straggler.RecvTime) {
		o.l.a.record(Violation{Invariant: InvRestoreOrder, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("restored snapshot @%s not strictly before straggler @%s", snap.Time, straggler.RecvTime)})
	}
	if snap.Hash != 0 {
		if h := HashState(snap.State); h != snap.Hash {
			o.l.a.record(Violation{Invariant: InvSnapshotHash, LP: o.l.lp, Object: o.id,
				Detail: fmt.Sprintf("snapshot @%s hashes %#x, saved as %#x (State.Clone not a deep copy?)",
					snap.Time, h, snap.Hash)})
		}
	}
}

// RollbackEnd resets the execution-order tracker to the kernel's
// post-rollback position (the last event that remains processed, or nil).
func (o *ObjectAudit) RollbackEnd(lastExec *event.Event) {
	if o == nil {
		return
	}
	if lastExec == nil {
		o.lastExec, o.hasExec = event.Event{}, false
		return
	}
	o.lastExec, o.hasExec = lastExec.Key(), true
}

// Floor checks invariant (b) at a GVT application: the new estimate can
// never exceed the object's unprocessed minimum (next pending event) or the
// minimum receive time among its unresolved lazy-cancellation outputs.
func (o *ObjectAudit) Floor(g, nextPending, minUnsent vtime.Time) {
	if o == nil {
		return
	}
	o.l.checks++
	if nextPending.Before(g) {
		o.l.a.record(Violation{Invariant: InvGVTFloor, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("GVT %s above unprocessed minimum %s", g, nextPending)})
	}
	if minUnsent.Before(g) {
		o.l.a.record(Violation{Invariant: InvGVTFloor, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("GVT %s above unresolved lazy output minimum %s", g, minUnsent)})
	}
}

// FossilFloor checks that after fossil collection under GVT g the state
// queue still holds a snapshot strictly below g, so any legal straggler
// (which must arrive at or above g) remains recoverable.
func (o *ObjectAudit) FossilFloor(g, oldest vtime.Time) {
	if o == nil {
		return
	}
	o.l.checks++
	if !oldest.Before(g) {
		o.l.a.record(Violation{Invariant: InvFossilFloor, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("oldest retained snapshot @%s not below GVT %s", oldest, g)})
	}
}

// LazyListed checks that an object holding pending cancellation entries is
// on its LP's lazy list: off it, the entries would neither be drained when
// the object goes idle nor counted into the local minimum.
func (o *ObjectAudit) LazyListed(pending int, listed bool) {
	if o == nil {
		return
	}
	o.l.checks++
	if pending > 0 && !listed {
		o.l.a.record(Violation{Invariant: InvLocalMin, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("%d pending cancellation entries but not on the lazy list", pending)})
	}
}

// FossilSkip cross-checks the fossil floor at a GVT application: skipped
// says the kernel's history list and floor would have passed the object
// over at g, changed that collecting it anyway reclaimed or committed
// something.
func (o *ObjectAudit) FossilSkip(g, floor vtime.Time, skipped, changed bool) {
	if o == nil {
		return
	}
	o.l.checks++
	if skipped && changed {
		o.l.a.record(Violation{Invariant: InvFossilSkip, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("skipped at GVT %s (fossil floor %s) though collection changed its history", g, floor)})
	}
}

// OrphanDropped records an orphan anti-message (an anti that arrived before
// its positive) fossil-collected below GVT: its positive can no longer
// legally arrive, so cancellation has leaked an orphan.
func (o *ObjectAudit) OrphanDropped(anti *event.Event) {
	if o == nil {
		return
	}
	o.l.checks++
	o.l.a.record(Violation{Invariant: InvOrphanAnti, LP: o.l.lp, Object: o.id,
		Detail: fmt.Sprintf("orphan anti-message @%s (sender %d id %d) dropped below GVT %s",
			anti.RecvTime, anti.Sender, anti.ID, o.l.gvt)})
}

// HashOf returns the structural hash to stamp into a checkpoint Snapshot,
// or 0 (meaning "unhashed") when auditing is disabled.
func (o *ObjectAudit) HashOf(st any) uint64 {
	if o == nil {
		return 0
	}
	o.l.checks++
	return HashState(st)
}

// Finish checks the object after the LPs stopped: every still-unprocessed
// event must lie beyond the simulated horizon and no orphan anti-messages may
// remain parked.
func (o *ObjectAudit) Finish(unprocessed []*event.Event, orphans int) {
	if o == nil {
		return
	}
	for _, ev := range unprocessed {
		o.l.a.LostEvent(o.l.lp, ev, "the input queue")
	}
	o.l.checks++
	if orphans > 0 {
		o.l.a.record(Violation{Invariant: InvOrphanAnti, LP: o.l.lp, Object: o.id,
			Detail: fmt.Sprintf("%d orphan anti-message(s) never annihilated", orphans)})
	}
}

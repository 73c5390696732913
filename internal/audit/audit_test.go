package audit

import (
	"strings"
	"testing"

	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/statesave"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

func ev(recv vtime.Time, sender event.ObjectID, id uint64) *event.Event {
	return &event.Event{SendTime: recv - 1, RecvTime: recv, Sender: sender, Receiver: 1, ID: id}
}

type intState struct{ N int }

func (s *intState) Clone() model.State {
	c := *s
	return &c
}

// bound returns an auditor bound for one LP plus its recorders.
func bound(t *testing.T, end vtime.Time) (*Auditor, *LPAudit, *ObjectAudit) {
	t.Helper()
	a := New()
	a.Bind(1, end)
	l := a.LP(0)
	if l == nil {
		t.Fatal("LP(0) returned nil on a bound auditor")
	}
	return a, l, l.Object(1)
}

// wantViolation asserts that exactly the given invariants were recorded.
func wantViolation(t *testing.T, a *Auditor, invs ...string) {
	t.Helper()
	vs := a.Violations()
	if len(vs) != len(invs) {
		t.Fatalf("got %d violations %v, want %d (%v)", len(vs), vs, len(invs), invs)
	}
	for i, v := range vs {
		if v.Invariant != invs[i] {
			t.Errorf("violation %d = %s, want %s (%s)", i, v.Invariant, invs[i], v.Detail)
		}
	}
}

func TestCleanSequenceNoViolations(t *testing.T) {
	a, l, o := bound(t, 1000)
	e1, e2 := ev(10, 0, 1), ev(20, 0, 2)
	o.Deliver(e1)
	o.Deliver(e2)
	o.Execute(e1)
	o.Execute(e2)
	l.ApplyGVT(15)
	o.Floor(15, 20, vtime.PosInf)
	o.Commit(e1, 15)
	o.FossilFloor(15, vtime.NegInf)
	if err := a.Err(); err != nil {
		t.Fatalf("clean sequence reported: %v", err)
	}
	if a.Checks() == 0 {
		t.Error("no checks counted")
	}
}

func TestGVTMonotoneViolation(t *testing.T) {
	a, l, _ := bound(t, 1000)
	l.ApplyGVT(50)
	l.ApplyGVT(50) // equal is fine
	l.ApplyGVT(40) // regression
	wantViolation(t, a, InvGVTMonotone)
}

func TestGVTFloorViolation(t *testing.T) {
	a, _, o := bound(t, 1000)
	o.Floor(50, 40, vtime.PosInf) // unprocessed min below GVT
	o.Floor(50, 60, 45)           // lazy-pending min below GVT
	wantViolation(t, a, InvGVTFloor, InvGVTFloor)
}

func TestGVTTokenViolations(t *testing.T) {
	a, l, _ := bound(t, 1000)
	l.ApplyGVT(30)
	l.GVTRound(-1, 40, 50) // negative white count
	l.GVTRound(0, 20, 50)  // M below previous GVT
	l.GVTRound(0, 40, 40)  // clean
	wantViolation(t, a, InvGVTToken, InvGVTToken)
}

func TestExecOrderViolation(t *testing.T) {
	a, _, o := bound(t, 1000)
	e1, e2 := ev(10, 0, 1), ev(20, 0, 2)
	o.Execute(e2)
	o.Execute(e1) // regression without a rollback
	wantViolation(t, a, InvExecOrder)
}

func TestExecOrderResetByRollback(t *testing.T) {
	a, _, o := bound(t, 1000)
	e1, e2 := ev(10, 0, 1), ev(20, 0, 2)
	o.Execute(e2)
	o.RollbackStart(e1)
	o.RollbackEnd(nil)
	o.Execute(e1) // legal: the rollback rewound the sequence
	if err := a.Err(); err != nil {
		t.Fatalf("rollback-reset sequence reported: %v", err)
	}
}

func TestExecAndArrivalBelowGVT(t *testing.T) {
	a, l, o := bound(t, 1000)
	l.ApplyGVT(50)
	o.Deliver(ev(40, 0, 1))
	o.Execute(ev(45, 0, 2))
	wantViolation(t, a, InvArrivalBelowGVT, InvExecBelowGVT)
}

func TestRollbackBelowGVT(t *testing.T) {
	a, l, o := bound(t, 1000)
	l.ApplyGVT(50)
	o.RollbackStart(ev(40, 0, 1))
	wantViolation(t, a, InvRollbackBelowGVT)
}

func TestCommitViolations(t *testing.T) {
	a, _, o := bound(t, 1000)
	e1, e2 := ev(10, 0, 1), ev(20, 0, 2)
	o.Commit(e2, 30)
	o.Commit(e1, 30) // committed order regressed
	o.Commit(ev(40, 0, 3), 30)
	wantViolation(t, a, InvCommitOrder, InvPrematureCommit)
}

func TestAntiMessagePairing(t *testing.T) {
	a, l, _ := bound(t, 1000)
	pos := ev(10, 0, 1)
	l.Route(pos, false)
	l.Route(pos.Anti(), false) // matched
	l.Route(pos.Anti(), false) // double cancellation
	l.Route(ev(20, 0, 2).Anti(), true)
	wantViolation(t, a, InvAntiUnmatched, InvAntiUnmatched)
}

func TestDuplicateSend(t *testing.T) {
	a, l, _ := bound(t, 1000)
	pos := ev(10, 0, 1)
	l.Route(pos, false)
	l.Route(pos, true)
	wantViolation(t, a, InvDuplicateSend)
}

func TestLedgerPruneOnGVT(t *testing.T) {
	a, l, _ := bound(t, 1000)
	l.Route(ev(10, 0, 1), false)
	l.Route(ev(20, 0, 2), false)
	l.Route(ev(30, 0, 3), false)
	l.ApplyGVT(25)
	if got := a.led.len(); got != 1 {
		t.Errorf("ledger holds %d entries after prune, want 1", got)
	}
}

func TestRestoreHashMismatch(t *testing.T) {
	a, _, o := bound(t, 1000)
	state := &intState{N: 7}
	// A snapshot stamped with Hash 0 is treated as "auditing was off when it
	// was saved" and never checked.
	o.Restore(ev(10, 0, 1), statesave.Snapshot{Time: 5, State: state, Hash: 0})
	if err := a.Err(); err != nil {
		t.Fatalf("unstamped snapshot reported: %v", err)
	}
	// A stamped snapshot whose state was mutated after saving must be caught.
	stamped := statesave.Snapshot{Time: 5, State: state, Hash: HashState(state)}
	state.N = 8
	o.Restore(ev(10, 0, 1), stamped)
	wantViolation(t, a, InvSnapshotHash)
}

func TestRestoreOrderViolation(t *testing.T) {
	a, _, o := bound(t, 1000)
	o.Restore(ev(10, 0, 1), statesave.Snapshot{Time: 10}) // not strictly before
	wantViolation(t, a, InvRestoreOrder)
}

func TestFossilFloorViolation(t *testing.T) {
	a, _, o := bound(t, 1000)
	o.FossilFloor(50, 50)
	wantViolation(t, a, InvFossilFloor)
}

func TestPacketCountViolation(t *testing.T) {
	a, l, _ := bound(t, 1000)
	l.Packet(3, 3)
	l.Packet(2, 3)
	wantViolation(t, a, InvPacketCount)
}

func TestFinishLostEventAndOrphans(t *testing.T) {
	a, _, o := bound(t, 1000)
	o.Finish([]*event.Event{
		ev(500, 0, 1),  // within horizon: lost
		ev(2000, 0, 2), // beyond horizon: fine
	}, 1)
	wantViolation(t, a, InvLostEvent, InvOrphanAnti)
}

func TestFinishConservation(t *testing.T) {
	a, l, _ := bound(t, 1000)
	l.Route(ev(10, 0, 1), true)
	l.Route(ev(20, 0, 2), true)
	l.Packet(1, 1)
	a.FinishRun(1, 0) // 2 sent == 1 delivered + 1 buffered
	if err := a.Err(); err != nil {
		t.Fatalf("balanced ledger reported: %v", err)
	}
	a.Bind(1, 1000)
	l = a.LP(0)
	l.Route(ev(10, 0, 1), true)
	a.FinishRun(0, 0)
	wantViolation(t, a, InvConservation)
}

func TestViolationCapAndDropCount(t *testing.T) {
	a, l, _ := bound(t, 1000)
	for i := 0; i < maxViolations+10; i++ {
		l.GVTRound(-1, 40, 50)
	}
	if got := len(a.Violations()); got != maxViolations {
		t.Errorf("stored %d violations, want cap %d", got, maxViolations)
	}
	if got := a.Dropped(); got != 10 {
		t.Errorf("dropped %d, want 10", got)
	}
	if !strings.Contains(a.Report(), "not shown") {
		t.Error("report does not mention dropped violations")
	}
}

func TestNilAuditorIsInert(t *testing.T) {
	var a *Auditor
	a.Bind(4, 100)
	l := a.LP(0)
	if l != nil {
		t.Fatal("nil auditor handed out a recorder")
	}
	o := l.Object(3)
	if o != nil {
		t.Fatal("nil LPAudit handed out an object recorder")
	}
	// Every hook must be a no-op, not a panic.
	e := ev(10, 0, 1)
	l.Route(e, true)
	l.Packet(1, 1)
	l.ApplyGVT(5)
	l.GVTRound(0, 5, 5)
	l.FinishDeferred([]*event.Event{e})
	o.Deliver(e)
	o.Execute(e)
	o.Commit(e, 20)
	o.RollbackStart(e)
	o.Restore(e, statesave.Snapshot{})
	o.RollbackEnd(nil)
	o.Floor(5, 10, 10)
	o.FossilFloor(5, 0)
	o.OrphanDropped(e)
	o.Finish(nil, 3)
	if h := o.HashOf(struct{}{}); h != 0 {
		t.Errorf("nil recorder hashed to %#x, want 0 sentinel", h)
	}
	a.FinishRun(0, 0)
	a.LostEvent(0, e, "nowhere")
	if a.Err() != nil || a.Checks() != 0 || a.Violations() != nil || a.Dropped() != 0 {
		t.Error("nil auditor accumulated state")
	}
	if a.Report() != "audit: disabled\n" {
		t.Errorf("nil report = %q", a.Report())
	}
}

func TestStatsViolations(t *testing.T) {
	good := stats.Counters{
		EventsProcessed:  100,
		EventsCommitted:  80,
		EventsRolledBack: 20,
		RollbackLength:   20,
		Rollbacks:        5,
		Stragglers:       3,
		AntiStragglers:   2,
		StatesSaved:      25,
	}
	if vs := StatsViolations(&good); len(vs) != 0 {
		t.Fatalf("clean counters reported: %v", vs)
	}
	bad := stats.Counters{
		EventsProcessed:  100,
		EventsCommitted:  120, // > processed, and identity broken
		EventsRolledBack: 10,
		RollbackLength:   12, // != rolled back
		Rollbacks:        5,  // != 1 + 1
		Stragglers:       1,
		AntiStragglers:   1,
		StatesSaved:      0, // rollbacks with no snapshots
	}
	// committed > processed, identity, rollback length, rollback causes,
	// rollbacks with no snapshots, and efficiency > 1: all six fire.
	vs := StatsViolations(&bad)
	if len(vs) != 6 {
		t.Fatalf("got %d violations (%v), want 6", len(vs), vs)
	}
	for _, v := range vs {
		if v.Invariant != InvStatsIdentity {
			t.Errorf("violation %s is not %s", v.Invariant, InvStatsIdentity)
		}
	}
}

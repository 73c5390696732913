package telemetry

import (
	"testing"
	"time"
)

func TestRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	tr.Bind([]int{0}, time.Now())
	lp := tr.LP(0)
	for i := 0; i < 10; i++ {
		lp.GVTCycle(int64(i), 1, time.Microsecond)
	}
	if got := lp.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d events, want 4", len(evs))
	}
	// The ring keeps the most recent window, oldest-first.
	for i, ev := range evs {
		if want := int64(6 + i); ev.VT != want {
			t.Errorf("event %d: VT = %d, want %d (oldest-first after wrap)", i, ev.VT, want)
		}
		if ev.Kind != KindGVT {
			t.Errorf("event %d: kind = %v, want gvt", i, ev.Kind)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	tr := NewTracer(8)
	tr.Bind([]int{0, 1}, time.Now())
	tr.LP(0).Rollback(3, 1, 40, 42, false, 5, 2, 1, time.Microsecond)
	tr.LP(1).Flush(0, 1, 12, 288)
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("Events returned %d events, want 2", len(evs))
	}
	for _, ev := range evs {
		switch ev.Kind {
		case KindRollback:
			if ev.LP != 0 || ev.Object != 3 || ev.VT != 42 || ev.A != CauseStraggler || ev.B != 5 || ev.C != 2 ||
				ev.D != 1 || ev.E != 40 || ev.F != 1 {
				t.Errorf("rollback event fields = %+v", ev)
			}
		case KindFlush:
			if ev.LP != 1 || ev.Object != 0 || ev.B != 12 || ev.C != 288 {
				t.Errorf("flush event fields = %+v", ev)
			}
		default:
			t.Errorf("unexpected kind %v", ev.Kind)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Bind([]int{0, 1, 2, 3}, time.Now()) // must not panic
	if got := tr.LP(0); got != nil {
		t.Fatalf("nil tracer LP(0) = %v, want nil", got)
	}
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer Events = %v, want nil", evs)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("nil tracer Dropped = %d, want 0", d)
	}

	if got := tr.System(); got != nil {
		t.Fatalf("nil tracer System() = %v, want nil", got)
	}

	var lp *LPTrace
	// Every recording method must be a no-op on a nil receiver: this is the
	// disabled-telemetry hot path.
	lp.Rollback(0, 0, 0, 0, true, 0, 0, 0, 0)
	lp.Roughness(0, 0, 0, 0, 0, 0, 0)
	lp.CheckpointAdjust(0, 1, 2, 0)
	lp.StrategySwitch(0, true, 500)
	lp.GVTCycle(0, 0, 0)
	lp.Flush(0, 0, 0, 0)
	lp.WindowAdjust(0, 0, 0)
	if got := lp.Len(); got != 0 {
		t.Fatalf("nil LPTrace Len = %d, want 0", got)
	}
}

// TestSystemRing checks that the system ring (LP -1) records independently
// of the per-LP rings and is merged into Events and Dropped.
func TestSystemRing(t *testing.T) {
	tr := NewTracer(4)
	tr.Bind([]int{0, 1}, time.Now())
	sys := tr.System()
	if sys == nil {
		t.Fatal("System() = nil after Bind")
	}
	for i := 0; i < 6; i++ {
		sys.Roughness(int64(i), 1, 9, 5, 2, 0, 100)
	}
	tr.LP(0).GVTCycle(3, 1, time.Microsecond)
	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("Events returned %d events, want 5 (4 retained roughness + 1 gvt)", len(evs))
	}
	var rough int
	for _, ev := range evs {
		if ev.Kind == KindRoughness {
			rough++
			if ev.LP != -1 {
				t.Errorf("roughness event LP = %d, want -1 (system ring)", ev.LP)
			}
		}
	}
	if rough != 4 {
		t.Errorf("roughness events = %d, want 4 (ring capacity)", rough)
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2 (system ring wraparound)", got)
	}
}

func TestLPOutOfRange(t *testing.T) {
	tr := NewTracer(4)
	tr.Bind([]int{0, 1}, time.Now())
	if got := tr.LP(2); got != nil {
		t.Fatalf("LP(2) with 2 LPs = %v, want nil", got)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindRollback:         "rollback",
		KindCheckpointAdjust: "checkpoint_adjust",
		KindStrategySwitch:   "strategy_switch",
		KindGVT:              "gvt",
		KindFlush:            "flush",
		KindWindowAdjust:     "window_adjust",
		KindRoughness:        "roughness",
		Kind(99):             "unknown",
	}
	for k, w := range want {
		if got := k.String(); got != w {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, w)
		}
	}
}

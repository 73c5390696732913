package pq

import (
	"math/rand"
	"testing"

	"gowarp/internal/vtime"
)

// The worker-pool scheduler relies on the schedule heap breaking virtual-time
// ties by (seq, object-id), not by the slot index an object happens to occupy
// — after migrations the slot order of two objects can be the reverse of
// their identity order, and the oracle hashes depend on the identity order
// winning.

func TestScheduleHeapTieBreakIgnoresSlotOrder(t *testing.T) {
	h := NewScheduleHeap(3)
	// Slot 0 hosts object 7, slot 1 hosts object 2, slot 2 hosts object 5 —
	// identity order is the reverse of slot order for 7 vs 2.
	h.UpdateKey(0, 100, 4, 7)
	h.UpdateKey(1, 100, 4, 2)
	h.UpdateKey(2, 100, 4, 5)
	if slot, _ := h.Min(); slot != 1 {
		t.Fatalf("equal (vt,seq): Min slot = %d, want 1 (lowest object id)", slot)
	}
	// A lower send sequence outranks a lower id.
	h.UpdateKey(2, 100, 3, 5)
	if slot, _ := h.Min(); slot != 2 {
		t.Fatalf("lower seq: Min slot = %d, want 2", slot)
	}
	// Virtual time still dominates everything.
	h.UpdateKey(0, 99, 9, 7)
	if slot, min := h.Min(); slot != 0 || min != 99 {
		t.Fatalf("lower vt: Min = (%d,%s), want (0,99)", slot, min)
	}
	if slot, min, seq, id := NewScheduleHeap(0).MinKey(); slot != -1 || min != vtime.PosInf || seq != 0 || id != 0 {
		t.Fatalf("empty heap: MinKey = (%d,%s,%d,%d), want (-1,+inf,0,0)", slot, min, seq, id)
	}
}

// TestScheduleHeapCompositeKeyProperty drives the heap with random UpdateKey
// operations and checks Min and MinKey against a brute-force scan of the
// (vt, seq, id) order after every step.
func TestScheduleHeapCompositeKeyProperty(t *testing.T) {
	const n = 24
	r := rand.New(rand.NewSource(11))
	h := NewScheduleHeap(n)
	keys := make([]scheduleKey, n)
	for i := range keys {
		keys[i] = scheduleKey{t: vtime.PosInf}
	}
	for step := 0; step < 20000; step++ {
		i := r.Intn(n)
		var k scheduleKey
		if r.Intn(8) == 0 {
			k = scheduleKey{t: vtime.PosInf}
		} else {
			// Small ranges force frequent vt and seq collisions so the
			// tie-break levels are all exercised.
			k = scheduleKey{
				t:   vtime.Time(r.Intn(16)),
				seq: uint64(r.Intn(4)),
				id:  int32(r.Intn(6)),
			}
		}
		keys[i] = k
		h.UpdateKey(i, k.t, k.seq, k.id)

		want, wantSlot := scheduleKey{t: vtime.PosInf}, -1
		for j, kj := range keys {
			if wantSlot == -1 || kj.less(want) {
				want, wantSlot = kj, j
			}
		}
		gotSlot, gotT := h.Min()
		if gotT != want.t {
			t.Fatalf("step %d: Min vt = %s, want %s", step, gotT, want.t)
		}
		// Among slots the heap could legally return, the composite key must
		// be the global minimum (identical keys may appear on several slots).
		if keys[gotSlot] != want {
			t.Fatalf("step %d: Min slot %d has key %+v, want %+v (slot %d)",
				step, gotSlot, keys[gotSlot], want, wantSlot)
		}
		if s, kt, seq, id := h.MinKey(); s != gotSlot || (scheduleKey{kt, seq, id}) != want {
			t.Fatalf("step %d: MinKey = (%d, %s, %d, %d), want slot %d with %+v",
				step, s, kt, seq, id, gotSlot, want)
		}
	}
}

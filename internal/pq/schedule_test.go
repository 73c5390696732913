package pq

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"gowarp/internal/vtime"
)

// refMin is the reference the schedule tree is held to: a scan for the least
// (key, slot) pair, the order the binary heap it replaced decided by. It
// returns (-1, +inf key) over no slots.
func refMin(keys []scheduleKey) (int, scheduleKey) {
	slot, min := -1, scheduleKey{t: vtime.PosInf}
	for j, k := range keys {
		if slot == -1 || k.less(min) {
			slot, min = j, k
		}
	}
	return slot, min
}

// checkSchedule compares Min, and MinIn over the whole tree and over a range
// inside it, with refMin over keys, the keys the test stored, and every inner
// node of the tree with the match of its children, so a node the stop rule
// left stale fails here and not when it surfaces.
func checkSchedule(t *testing.T, h *ScheduleHeap, keys []scheduleKey, step int) {
	t.Helper()
	wantSlot, want := refMin(keys)
	if slot, vt := h.Min(); slot != wantSlot || vt != want.t {
		t.Fatalf("n=%d step %d: Min = (%d, %s), want (%d, %s)", len(keys), step, slot, vt, wantSlot, want.t)
	}
	n := len(keys)
	checkMinIn(t, h, keys, 0, n, step)
	checkMinIn(t, h, keys, n/3, n-n/4, step)
	for j := len(h.win)/2 - 1; j >= 1; j-- {
		if w := h.pick(h.win[2*j], h.win[2*j+1]); h.win[j] != w {
			t.Fatalf("n=%d step %d: node %d names slot %d, its children's match %d", len(keys), step, j, h.win[j], w)
		}
	}
}

// checkMinIn holds MinIn(lo, hi) to refMin over the same slots.
func checkMinIn(t *testing.T, h *ScheduleHeap, keys []scheduleKey, lo, hi, step int) {
	t.Helper()
	wantSlot, want := refMin(keys[lo:hi])
	if wantSlot >= 0 {
		wantSlot += lo
	}
	if slot, vt := h.MinIn(lo, hi); slot != wantSlot || vt != want.t {
		t.Fatalf("n=%d step %d: MinIn(%d, %d) = (%d, %s), want (%d, %s)", len(keys), step, lo, hi, slot, vt, wantSlot, want.t)
	}
}

func TestScheduleHeap(t *testing.T) {
	h := NewScheduleHeap(4)
	if slot, min := h.Min(); min != vtime.PosInf || slot != 0 {
		t.Fatalf("fresh heap Min = (%d,%s), want (0,+inf)", slot, min)
	}
	h.UpdateKey(2, 50, 0, 0)
	h.UpdateKey(0, 30, 0, 0)
	h.UpdateKey(3, 40, 0, 0)
	if slot, min := h.Min(); slot != 0 || min != 30 {
		t.Fatalf("Min = (%d,%s), want (0,30)", slot, min)
	}
	h.UpdateKey(0, 60, 0, 0) // increase past others
	if slot, min := h.Min(); slot != 3 || min != 40 {
		t.Fatalf("Min = (%d,%s), want (3,40)", slot, min)
	}
	h.UpdateKey(3, vtime.PosInf, 0, 0) // object goes idle
	if slot, min := h.Min(); slot != 2 || min != 50 {
		t.Fatalf("Min = (%d,%s), want (2,50)", slot, min)
	}
	h.UpdateKey(2, vtime.PosInf, 0, 0)
	if slot, min := h.Min(); slot != 0 || min != 60 {
		t.Fatalf("Min = (%d,%s), want (0,60)", slot, min)
	}
	h.UpdateKey(0, vtime.PosInf, 0, 0) // all idle: the lowest slot, never padding
	if slot, min := h.Min(); slot != 0 || min != vtime.PosInf {
		t.Fatalf("Min = (%d,%s), want (0,+inf)", slot, min)
	}
}

// TestScheduleHeapRandomized: virtual times alone, with a zero tie-break, so
// equal times fall to the lower slot.
func TestScheduleHeapRandomized(t *testing.T) {
	const n = 16
	r := rand.New(rand.NewSource(3))
	h := NewScheduleHeap(n)
	keys := make([]scheduleKey, n)
	for i := range keys {
		keys[i] = scheduleKey{t: vtime.PosInf}
	}
	for step := 0; step < 10000; step++ {
		i := r.Intn(n)
		k := scheduleKey{t: vtime.PosInf}
		if r.Intn(8) != 0 {
			k.t = vtime.Time(r.Intn(1000))
		}
		keys[i] = k
		h.UpdateKey(i, k.t, 0, 0)
		checkSchedule(t, h, keys, step)
	}
}

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
	// A range is matched by the same rule: slots 1 and 2 alone, then slot 1.
	if slot, min := h.MinIn(1, 3); slot != 2 || min != 100 {
		t.Fatalf("MinIn(1, 3) = (%d,%s), want (2,100)", slot, min)
	}
	if slot, min := h.MinIn(1, 2); slot != 1 || min != 100 {
		t.Fatalf("MinIn(1, 2) = (%d,%s), want (1,100)", slot, min)
	}
	if slot, min := h.MinIn(2, 2); slot != -1 || min != vtime.PosInf {
		t.Fatalf("empty range: MinIn = (%d,%s), want (-1,+inf)", slot, min)
	}
	if slot, min := NewScheduleHeap(0).MinIn(0, 0); slot != -1 || min != vtime.PosInf {
		t.Fatalf("empty heap: MinIn = (%d,%s), want (-1,+inf)", slot, min)
	}
}

// TestScheduleHeapCompositeKeyProperty drives the tree with random UpdateKey
// operations at sizes on either side of a power of two — where the padding
// leaves start — and checks it against refMin after every step. Small key
// ranges make equal composite keys on different slots common; phases in which
// most updates go to +inf leave every slot idle, when only the lower-slot
// rule, and never a padding leaf, decides Min; half the updates re-key the
// current minimum, as the kernel does after executing it.
func TestScheduleHeapCompositeKeyProperty(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 255, 256, 257, 511, 512, 513} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(11 + n)))
			h := NewScheduleHeap(n)
			keys := make([]scheduleKey, n)
			for i := range keys {
				keys[i] = scheduleKey{t: vtime.PosInf}
			}
			checkSchedule(t, h, keys, -1)
			if n == 0 {
				return
			}
			for step := 0; step < 4000+4*n; step++ {
				i := r.Intn(n)
				if r.Intn(2) == 0 {
					i, _ = h.Min()
				}
				idle := 1 // in eight updates
				if (step/500)%2 == 1 {
					idle = 7
				}
				k := scheduleKey{t: vtime.PosInf, id: int32(r.Intn(6))}
				if r.Intn(8) >= idle {
					k = scheduleKey{
						t:   vtime.Time(r.Intn(16)),
						seq: uint64(r.Intn(4)),
						id:  int32(r.Intn(6)),
					}
				}
				keys[i] = k
				h.UpdateKey(i, k.t, k.seq, k.id)
				checkSchedule(t, h, keys, step)
			}
		})
	}
}

// FuzzScheduleHeap reads a slot count (two bytes, below 530: past the
// 512-leaf boundary phold-lp's LPs sit on) and then four-byte operations from
// the tape: a slot (high bit of the second byte: the current minimum instead),
// a virtual time (0xf0 and up: +inf; 0xe0 to 0xef: no update but a MinIn
// query from the slot over as many slots as the last byte says, modulo what
// is left of the tree) and a byte split into a send sequence and an object
// id. The tree is held to refMin after every operation; every check scans all
// slots, so a tape is cut at 256 operations to keep executions fast.
func FuzzScheduleHeap(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 5, 0x21, 1, 0, 5, 0x21, 2, 0, 5, 0x20})
	f.Add([]byte{9, 0, 0, 0x80, 0xff, 0, 8, 0, 1, 0, 0, 0x80, 0xff, 0, 0, 0x80, 0xff, 7})
	f.Add([]byte{0, 2, 0xff, 1, 3, 0, 0, 0, 3, 0, 0, 0x80, 0xf0, 0, 0, 0x80, 4, 1})
	f.Add([]byte{0, 0, 1, 2, 3, 4})
	f.Add([]byte{12, 0, 2, 0, 7, 0x41, 9, 0, 3, 0x22, 3, 0, 0xe5, 9, 0, 0x80, 0xe0, 12})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 2 {
			return
		}
		tape = tape[:min(len(tape), 2+4*256)]
		n := int(binary.LittleEndian.Uint16(tape)) % 530
		h := NewScheduleHeap(n)
		keys := make([]scheduleKey, n)
		for i := range keys {
			keys[i] = scheduleKey{t: vtime.PosInf}
		}
		checkSchedule(t, h, keys, -1)
		if n == 0 {
			return
		}
		for p, step := 2, 0; p+4 <= len(tape); p, step = p+4, step+1 {
			op := tape[p : p+4]
			i := (int(op[0]) | int(op[1]&0x7f)<<8) % n
			if op[1]&0x80 != 0 {
				i, _ = h.Min()
			}
			if op[2]&0xf0 == 0xe0 {
				checkMinIn(t, h, keys, i, i+int(op[3])%(n-i+1), step)
				continue
			}
			k := scheduleKey{t: vtime.PosInf, seq: uint64(op[3] >> 5), id: int32(op[3] & 7)}
			if op[2] < 0xf0 {
				k.t = vtime.Time(op[2] & 0x1f)
			}
			keys[i] = k
			h.UpdateKey(i, k.t, k.seq, k.id)
			checkSchedule(t, h, keys, step)
		}
	})
}

// BenchmarkScheduleHeap times one kernel step on the schedule tree: the least
// slot executes and moves to a later key (to +inf, its queue drained, one time
// in eight), and the event it sent may move one random slot earlier — an
// update that leaves the slot's key alone is the kernel's refresh of an
// object whose head did not change. 13 slots is smmp-facets' LP, 256 and 512
// are phold-pool's and phold-lp's, 2,048 is phold-lp's objects on two LPs.
func BenchmarkScheduleHeap(b *testing.B) {
	for _, n := range []int{13, 256, 512, 2048} {
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			h := NewScheduleHeap(n)
			keys := make([]scheduleKey, n)
			for i := range keys {
				keys[i] = scheduleKey{t: vtime.Time(r.Intn(100)), seq: uint64(i), id: int32(i)}
				h.UpdateKey(i, keys[i].t, keys[i].seq, keys[i].id)
			}
			// Draws are made up front, so the timed loop is the tree's.
			const draws = 1 << 12
			delay := make([]vtime.Time, draws)
			target := make([]int32, draws)
			for i := range delay {
				delay[i] = 1 + vtime.Time(r.ExpFloat64()*10)
				target[i] = int32(r.Intn(n))
			}
			seq, now := uint64(n), vtime.Time(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := i & (draws - 1)
				slot, at := h.Min()
				if at != vtime.PosInf {
					now = at
				}
				k := &keys[slot]
				k.t, k.seq = now+delay[d], seq
				if d&7 == 0 {
					k.t = vtime.PosInf
				}
				h.UpdateKey(slot, k.t, k.seq, k.id)
				seq++
				k = &keys[target[d]]
				if t := now + delay[(d+1)&(draws-1)]; t < k.t {
					k.t, k.seq = t, seq
					seq++
				}
				h.UpdateKey(int(target[d]), k.t, k.seq, k.id)
			}
		})
	}
}

package pq

import (
	"math"

	"gowarp/internal/vtime"
)

// ScheduleHeap orders the simulation objects hosted by one scheduler (a
// logical process, or a worker thread owning several LPs) by the receive time
// of their next unprocessed event, so the scheduler can pick the
// lowest-timestamped object in O(1) and re-key one in O(log n). Objects are
// identified by a dense slot index assigned by the owner; a slot with no
// pending work carries key vtime.PosInf and simply loses every match rather
// than being removed, so there is no membership bookkeeping.
//
// It is a winner (tournament) tree, not a heap: the name is kept because
// benchmark/layers.go compiles against it, and renaming it is ROADMAP item
// 1's. The leaves are the slots, padded to a power of two with a sentinel
// slot; every inner node holds the slot that wins under it, so UpdateKey
// replays the one path from the slot's leaf to the root — one comparison a
// level, no swaps, no position index — and stops where the winner is unchanged
// and not the slot itself.
//
// Ties on the virtual time are broken by the (seq, id) pair supplied with
// UpdateKey — the head event's send sequence number and the object's global
// identity — giving the deterministic (vt, seq, object-id) execution order
// the differential oracle hashes depend on; identical composite keys fall back
// to the lower slot.
type ScheduleHeap struct {
	keys []scheduleKey // key per slot index, then the sentinel's
	win  []int32       // win[j]: winning slot under node j; leaves at [len/2, len)
}

// scheduleKey is a slot's composite priority: the virtual time of the
// object's next event, tie-broken by that event's send sequence and the
// object's stable global id.
type scheduleKey struct {
	t   vtime.Time
	seq uint64
	id  int32
}

func (a scheduleKey) less(b scheduleKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.id < b.id
}

// NewScheduleHeap returns a tree over n object slots, all initially at
// vtime.PosInf (nothing schedulable).
func NewScheduleHeap(n int) *ScheduleHeap {
	h := &ScheduleHeap{}
	if n == 0 {
		return h
	}
	leaves := 1
	for leaves < n {
		leaves <<= 1
	}
	h.keys = make([]scheduleKey, n+1)
	for i := range h.keys {
		h.keys[i] = scheduleKey{t: vtime.PosInf}
	}
	// The sentinel, slot n, is never less than any key and is the highest
	// slot, so it loses every match against a real slot.
	h.keys[n] = scheduleKey{t: vtime.PosInf, seq: math.MaxUint64, id: math.MaxInt32}
	h.win = make([]int32, 2*leaves)
	for i := 0; i < leaves; i++ {
		h.win[leaves+i] = int32(min(i, n))
	}
	for j := leaves - 1; j >= 1; j-- {
		h.win[j] = h.pick(h.win[2*j], h.win[2*j+1])
	}
	return h
}

// pick returns the winner of a match between the winners of two sibling
// nodes. Every slot under a left child is lower than every slot under its
// sibling, so keeping a on equal keys is the lower-slot rule.
func (h *ScheduleHeap) pick(a, b int32) int32 {
	if h.keys[b].less(h.keys[a]) {
		return b
	}
	return a
}

// UpdateKey sets slot i's composite key — the virtual time t of the slot's
// next event, that event's send sequence seq, and the object's global id —
// and replays the matches on the path from i's leaf to the root.
func (h *ScheduleHeap) UpdateKey(i int, t vtime.Time, seq uint64, id int32) {
	k := scheduleKey{t: t, seq: seq, id: id}
	if h.keys[i] == k {
		return
	}
	h.keys[i] = k
	s := int32(i)
	for j := (len(h.win)/2 + i) >> 1; j >= 1; j >>= 1 {
		w := h.pick(h.win[2*j], h.win[2*j+1])
		if w == h.win[j] && w != s {
			return // nothing above depends on i's key
		}
		h.win[j] = w
	}
}

// Min returns the slot index with the least key and that key's virtual time.
// When every slot is at vtime.PosInf the scheduler has nothing to execute.
func (h *ScheduleHeap) Min() (slot int, t vtime.Time) {
	if len(h.win) == 0 {
		return -1, vtime.PosInf
	}
	s := h.win[1]
	return int(s), h.keys[s].t
}

// MinKey is Min returning the whole composite key UpdateKey stored for the
// least slot, so a scheduler of schedulers can copy it without going back to
// the object it came from.
func (h *ScheduleHeap) MinKey() (slot int, t vtime.Time, seq uint64, id int32) {
	if len(h.win) == 0 {
		return -1, vtime.PosInf, 0, 0
	}
	s := h.win[1]
	k := h.keys[s]
	return int(s), k.t, k.seq, k.id
}

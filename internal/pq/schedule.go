package pq

import "gowarp/internal/vtime"

// ScheduleHeap orders the simulation objects hosted by one scheduler (a
// logical process, or a worker thread owning several LPs) by the receive time
// of their next unprocessed event, so the scheduler can pick the
// lowest-timestamped object in O(log n). Objects are identified by a dense
// slot index assigned by the owner; a slot with no pending work carries key
// vtime.PosInf and simply sinks to the bottom rather than being removed,
// which keeps Update O(log n) with no membership bookkeeping.
//
// Ties on the virtual time are broken by the (seq, id) pair supplied with
// UpdateKey — the head event's send sequence number and the object's global
// identity — giving the deterministic (vt, seq, object-id) execution order
// the differential oracle hashes depend on. The legacy Update keeps a zero
// (seq, id), which reduces to slot order for callers that never migrate
// objects between slots.
type ScheduleHeap struct {
	keys  []scheduleKey // key per slot index
	order []int         // heap of slot indices
	pos   []int         // slot index -> position in order
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

// NewScheduleHeap returns a heap over n object slots, all initially at
// vtime.PosInf (nothing schedulable).
func NewScheduleHeap(n int) *ScheduleHeap {
	h := &ScheduleHeap{
		keys:  make([]scheduleKey, n),
		order: make([]int, n),
		pos:   make([]int, n),
	}
	for i := range h.keys {
		h.keys[i] = scheduleKey{t: vtime.PosInf}
		h.order[i] = i
		h.pos[i] = i
	}
	return h
}

// Len returns the number of object slots.
func (h *ScheduleHeap) Len() int { return len(h.order) }

// Key returns the current virtual-time key of slot i.
func (h *ScheduleHeap) Key(i int) vtime.Time { return h.keys[i].t }

// Update sets slot i's key to t with a zero tie-break and restores heap
// order. Equivalent to UpdateKey(i, t, 0, 0).
func (h *ScheduleHeap) Update(i int, t vtime.Time) {
	h.UpdateKey(i, t, 0, 0)
}

// UpdateKey sets slot i's composite key — the virtual time t of the slot's
// next event, that event's send sequence seq, and the object's global id —
// and restores heap order.
func (h *ScheduleHeap) UpdateKey(i int, t vtime.Time, seq uint64, id int32) {
	k := scheduleKey{t: t, seq: seq, id: id}
	old := h.keys[i]
	if old == k {
		return
	}
	h.keys[i] = k
	p := h.pos[i]
	if k.less(old) {
		h.up(p)
	} else {
		h.down(p)
	}
}

// Min returns the slot index with the least key and that key's virtual time.
// When every slot is at vtime.PosInf the scheduler has nothing to execute.
func (h *ScheduleHeap) Min() (slot int, t vtime.Time) {
	if len(h.order) == 0 {
		return -1, vtime.PosInf
	}
	s := h.order[0]
	return s, h.keys[s].t
}

// MinKey is Min returning the whole composite key UpdateKey stored for the
// least slot, so a scheduler of schedulers can copy it without going back to
// the object it came from.
func (h *ScheduleHeap) MinKey() (slot int, t vtime.Time, seq uint64, id int32) {
	if len(h.order) == 0 {
		return -1, vtime.PosInf, 0, 0
	}
	s := h.order[0]
	k := h.keys[s]
	return s, k.t, k.seq, k.id
}

func (h *ScheduleHeap) less(i, j int) bool {
	a, b := h.order[i], h.order[j]
	if h.keys[a] != h.keys[b] {
		return h.keys[a].less(h.keys[b])
	}
	return a < b // identical composite keys: fall back to slot order
}

func (h *ScheduleHeap) swap(i, j int) {
	h.order[i], h.order[j] = h.order[j], h.order[i]
	h.pos[h.order[i]] = i
	h.pos[h.order[j]] = j
}

func (h *ScheduleHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *ScheduleHeap) down(i int) {
	n := len(h.order)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h.less(l, least) {
			least = l
		}
		if r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h.swap(i, least)
		i = least
	}
}

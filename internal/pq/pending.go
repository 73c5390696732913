// Package pq provides the ordered event collections used by the Time Warp
// kernel: pending-event sets (the unprocessed portion of a simulation
// object's input queue) and the schedule tree a dispatcher worker uses to pick
// the simulation object with the lowest-timestamped next event.
//
// Three pending-set implementations are provided behind one interface — an
// index-tracked binary heap, a splay tree, and a calendar queue — so the
// kernel's scheduler data structure is a measured design choice (see the
// ablation benchmarks) rather than an assumption.
package pq

import "gowarp/internal/event"

// Identity is the (sender, sequence) pair that uniquely names an event.
// Anti-messages share the identity of the positive message they cancel,
// which is exactly what annihilation needs to look up.
type Identity struct {
	Sender event.ObjectID
	ID     uint64
}

// IdentityOf returns the identity key of e.
func IdentityOf(e *event.Event) Identity {
	return Identity{Sender: e.Sender, ID: e.ID}
}

// PendingSet is an ordered multiset of positive events, ordered by
// event.Compare. The kernel keeps one per simulation object holding the
// events not yet processed at the object's current local virtual time.
type PendingSet interface {
	// Push inserts e. Events with duplicate identities must not be pushed.
	Push(e *event.Event)
	// PeekMin returns the least event without removing it, or nil if empty.
	PeekMin() *event.Event
	// PopMin removes and returns the least event, or nil if empty.
	PopMin() *event.Event
	// Remove removes the event with the given identity if present,
	// returning it (annihilation of an unprocessed event).
	Remove(id Identity) *event.Event
	// Len returns the number of events held.
	Len() int
	// Walk calls fn once per held event, in no particular order. It is an
	// inspection hook (used by the invariant auditor); fn must not mutate
	// the set.
	Walk(fn func(*event.Event))
}

// Kind selects a PendingSet implementation.
type Kind int

const (
	// Heap selects the index-tracked binary heap (the default).
	Heap Kind = iota
	// Splay selects the splay tree.
	Splay
	// Calendar selects the calendar queue.
	Calendar
)

// String names the implementation for reports and flags.
func (k Kind) String() string {
	switch k {
	case Splay:
		return "splay"
	case Calendar:
		return "calendar"
	default:
		return "heap"
	}
}

// New returns an empty PendingSet of the requested kind.
func New(k Kind) PendingSet {
	switch k {
	case Splay:
		return NewSplaySet()
	case Calendar:
		return NewCalendarSet()
	default:
		return NewHeapSet()
	}
}

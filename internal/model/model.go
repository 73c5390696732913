// Package model defines the application programming interface between
// simulation models and the Time Warp kernel: simulation objects, their
// saveable state, and the context through which an executing event schedules
// further events. The kernel performs all Time Warp specific activity —
// state saving, rollback, cancellation, GVT — without intervention from the
// model, mirroring the WARPED kernel's API philosophy.
package model

import (
	"slices"
	"strconv"

	"gowarp/internal/event"
	"gowarp/internal/vtime"
)

// State is a simulation object's saveable state. The kernel checkpoints
// state by calling Clone, and restores it on rollback by handing a clone of
// a saved snapshot back to the object; Clone must therefore produce a deep
// copy of everything the object's Execute method mutates. Any randomness the
// object consumes must live inside the state (see Rand) or rollbacks would
// not reproduce the pre-rollback event outputs.
type State interface {
	Clone() State
}

// Reusable is an optional State extension for allocation-free checkpointing.
// CopyInto copies the receiver into dst — a retired State previously produced
// by Clone (or CopyInto) on a value of the same concrete type, no longer
// referenced anywhere else — reusing dst's backing storage where capacity
// allows, and returns dst. The result must be indistinguishable from a fresh
// Clone. Implementations must fall back to Clone when dst is not the
// receiver's concrete type. The kernel recycles fossil-collected snapshot
// states through this hook, which removes the dominant remaining allocation
// source (per-checkpoint deep copies) from the steady-state hot path.
type Reusable interface {
	State
	CopyInto(dst State) State
}

// Context is the kernel-provided handle an object uses while executing an
// event. A Context is only valid for the duration of the Execute or Init
// call it was passed to.
type Context interface {
	// Self returns the executing object's global ID.
	Self() event.ObjectID
	// Now returns the object's current local virtual time (the receive
	// time of the executing event; vtime.Zero during Init).
	Now() vtime.Time
	// Send schedules an event for the object named to at virtual time
	// Now()+delay. The delay must be positive for events sent to self and
	// non-negative otherwise; the kernel enforces causality. The kernel
	// copies the payload during the call, so callers may reuse the slice
	// (e.g. a per-object scratch buffer) for subsequent sends.
	Send(to event.ObjectID, delay vtime.Time, kind uint32, payload []byte)
	// EndTime returns the virtual time at which the simulation stops;
	// events scheduled past it are silently dropped at commit.
	EndTime() vtime.Time
}

// Object is a simulation object (the "physical process" of Figure 1 plus its
// identity). Objects are passive: the kernel owns the event and history
// queues and calls into the object to initialize and to execute events.
// Execute must be deterministic given (state, event) — Time Warp re-executes
// events during coast forward and after rollbacks and relies on identical
// behaviour each time.
type Object interface {
	// Name returns a unique, human-readable object name.
	Name() string
	// InitialState returns the object's state at virtual time zero.
	InitialState() State
	// Init runs once at simulation start; it typically seeds the event
	// flow by scheduling the object's first events.
	Init(ctx Context, st State)
	// Execute processes one event, mutating st and scheduling any
	// consequent events through ctx. ev is read-only, payload included: the
	// kernel executes it again on coast forward, and its sender's output
	// queue may hold the same struct.
	Execute(ctx Context, st State, ev *event.Event)
}

// Partition maps every object (by dense index in the registered object list)
// to a logical process. Models provide a partition so related objects share
// an LP and its cheap intra-LP communication, as the paper's model
// generators do.
type Partition []int

// Model is a complete simulation application: the objects plus their
// assignment to logical processes.
type Model struct {
	Objects   []Object
	Partition Partition
	// Name identifies the model in reports.
	Name string
}

// NumLPs returns the number of logical processes the partition uses
// (max index + 1), or 1 for an empty partition.
func (m *Model) NumLPs() int {
	n := 0
	for _, p := range m.Partition {
		if p+1 > n {
			n = p + 1
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// Validate checks structural sanity: one partition entry per object, LP
// indices dense and non-negative, unique object names.
func (m *Model) Validate() error {
	if len(m.Objects) == 0 {
		return errEmpty
	}
	if len(m.Partition) != len(m.Objects) {
		return errPartitionSize
	}
	used := make([]bool, m.NumLPs())
	for _, p := range m.Partition {
		if p < 0 {
			return errLPIndex
		}
		used[p] = true
	}
	for _, u := range used {
		if !u {
			return errLPGap
		}
	}
	if m.duplicateName() {
		return errDupName
	}
	return nil
}

// duplicateName reports whether two objects share a name. Names are formatted
// on demand by most models (a million stored strings would dwarf the objects),
// so each is asked for once and none is kept past the check.
func (m *Model) duplicateName() bool {
	names := make([]string, len(m.Objects))
	for i, o := range m.Objects {
		names[i] = o.Name()
	}
	slices.Sort(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			return true
		}
	}
	return false
}

// IndexedName returns prefix followed by i in decimal — "phold.17" — the shape
// of every bundled model's object names, for one allocation: a model that
// formats names on demand is asked for each twice a run (duplicateName, the
// result), and fmt.Sprintf boxes the index besides.
func IndexedName(prefix string, i int) string {
	var buf [40]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(i), 10))
}

type modelError string

func (e modelError) Error() string { return string(e) }

const (
	errEmpty         = modelError("model: no objects")
	errPartitionSize = modelError("model: partition length != object count")
	errLPIndex       = modelError("model: negative LP index in partition")
	errLPGap         = modelError("model: partition leaves an LP with no objects")
	errDupName       = modelError("model: duplicate object name")
)

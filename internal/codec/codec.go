// Package codec is the state-codec facet of the kernel: incremental
// (delta) checkpoint encoding, a self-contained LZ compressor for stored
// snapshots, migration capsules and wire payloads, and the on-line
// <O,I,S,T,P> controller that switches each object between full and delta
// checkpointing from observed stored-bytes ratios.
//
// The paper's Section 4 controller tunes how often state is saved; this
// facet makes each saved or shipped byte cheaper. Both matter once state
// grows: with padded models the per-checkpoint and per-capsule cost is
// dominated by state bytes, not by bookkeeping.
//
// Control tuple, per simulation object:
//
//	O — the ratio of delta-encoded to full-encoded stored bytes, sampled
//	    over the control period (the encoding not in force is probed);
//	I — the checkpoint encoding in force: full or delta;
//	S — delta (Config.Mode Dynamic starts optimistic);
//	T — a dead zone on the ratio: switch to full above ctlHighRatio, back to
//	    delta below ctlLowRatio;
//	P — ctlPeriod saves.
package codec

import (
	"fmt"

	"gowarp/internal/model"
)

// DeltaState is the optional contract a model state implements to opt into
// incremental checkpointing and capsule compression. MarshalState must be
// deterministic (equal states encode to equal bytes) and UnmarshalState
// must invert it: the kernel's structural-hash audit verifies the round
// trip on every restore and migration install.
//
// A state that also implements DirtyState, below, is marshalled whole only
// where it must be: each call of MarshalState or UnmarshalState here is a
// point its MarshalDirty reports are measured from.
type DeltaState interface {
	model.State
	// MarshalState appends a complete encoding of the state to buf and
	// returns the extended slice.
	MarshalState(buf []byte) []byte
	// UnmarshalState decodes data, reusing the receiver's storage where it
	// can, and returns the decoded state — after the call the receiver is
	// unspecified unless it is what was returned. The kernel calls it on the
	// state it is about to replace (the live state on a rollback, a migrated
	// object's stale image) or on a fresh InitialState, so a state that fills
	// itself in place (Reader.BytesInto for slices) makes a restore free of
	// allocation; one that builds and returns a fresh struct stays correct.
	// Nothing of the receiver's old contents may survive into the result, and
	// the result must not alias data. On error the contents are unspecified.
	UnmarshalState(data []byte) (model.State, error)
}

// DirtyState is DeltaState's optional sibling, for a state whose encoding has a
// fixed layout — the same length from one MarshalState to the next, every field
// at the same offset — and which knows what its events wrote. It hands the
// kernel the regions of the encoding that may have changed, and a checkpoint
// then costs those bytes, not a marshal and a compare of the whole image: a
// save reads what the event wrote. The kernel finds it by type assertion, as it
// finds DeltaState.
//
// "Changed" is measured from the state's last synchronisation with the kernel:
// the latest call on this state of MarshalState, of MarshalDirty answering ok,
// or of UnmarshalState (the state is then what was decoded). The kernel keeps
// the encoding it saw at that moment and patches it with what MarshalDirty
// reports. A state that keeps marks therefore clears them in all three, and
// copies them in Clone and CopyInto — the copy stands where the original stood.
// One that reports by construction (the bundled padded states: the counters in
// front are always reported, the padding no Execute writes never) keeps none,
// and that is the form to prefer: marks are fields, and the auditor's
// structural hash and the oracle's comparison with the sequential kernel, which
// never marshals, read every field of a state.
//
// Reporting more than changed costs only time: the kernel compares a region
// with what it holds and stores the bytes that differ. Reporting less loses the
// write: the checkpoint, and every restore through it, is of a state that never
// was. Under Config.Audit the restore-time structural hash catches that.
type DirtyState interface {
	DeltaState
	// MarshalDirty appends to data the current encoding of every region that
	// may have changed, end to end, and to at where each lies in the full
	// encoding: ascending and disjoint. ok false says the state cannot tell —
	// its encoding changed length, or it lost track — and the kernel, ignoring
	// what was appended, calls MarshalState instead.
	MarshalDirty(data []byte, at []Region) ([]byte, []Region, bool)
}

// Region is a span of a state's encoding: Len bytes from offset Off.
type Region struct{ Off, Len int }

// Mode selects how checkpoints are encoded.
type Mode int

const (
	// Off stores cloned states, the kernel's classic behavior.
	Off Mode = iota
	// Full stores complete encodings of every checkpoint (compressed when
	// Compression says so).
	Full
	// Delta stores sparse, reversible binary deltas against the previous
	// checkpoint; the state queue keeps one full image, the newest.
	Delta
	// Dynamic starts in delta encoding and lets the on-line controller
	// switch each object between full and delta from observed sizes.
	Dynamic
)

// String names the mode for reports and flags.
func (m Mode) String() string {
	switch m {
	case Full:
		return "full"
	case Delta:
		return "delta"
	case Dynamic:
		return "dynamic"
	default:
		return "off"
	}
}

// Compression selects the byte-level compressor applied to stored
// snapshot encodings, migration-capsule states and flushed wire payloads.
type Compression int

const (
	// NoCompression stores encodings as produced.
	NoCompression Compression = iota
	// LZ applies the package's self-contained LZ77-style compressor.
	LZ
)

// String names the compression for reports and flags.
func (c Compression) String() string {
	if c == LZ {
		return "lz"
	}
	return "none"
}

// The Dynamic mode's controller: ctlPeriod is P, the checkpoint saves between
// firings, and ctlLowRatio and ctlHighRatio bound the dead zone on the sampled
// delta/full stored-bytes ratio — an object switches to delta encoding when
// the ratio falls below ctlLowRatio and back to full when it rises above
// ctlHighRatio.
const (
	ctlPeriod    = 64
	ctlLowRatio  = 0.55
	ctlHighRatio = 0.90
)

// Config parameterizes the state-codec facet (Config.Codec in the kernel
// configuration). The zero value is Off: cloned checkpoints, no
// compression, exactly the kernel's pre-codec behavior.
type Config struct {
	// Mode selects the checkpoint encoding discipline.
	Mode Mode
	// Compression selects the compressor for stored encodings, capsule
	// states and wire payloads. It applies even with Mode Off (wire and
	// capsule compression only).
	Compression Compression
}

// CompressWire reports whether flushed wire payloads and migration-capsule
// states pass through the compressor.
func (c Config) CompressWire() bool { return c.Compression == LZ }

// String renders the config as a spec string (the format ParseSpec of the
// facade accepts).
func (c Config) String() string {
	s := c.Mode.String()
	if c.Compression == LZ {
		s += ",lz"
	}
	return s
}

// probeEvery is how often, in saves, the Dynamic controller sizes (but does
// not store) the encoding not in force, so O remains observable on both sides
// of the switch.
const probeEvery = 8

// StateCodec is one simulation object's checkpoint-encoding runtime: the
// encoding currently in force and the Dynamic-mode controller state. It is
// owned by the object's state queue and touched only by the hosting LP
// goroutine. A nil *StateCodec means Off.
type StateCodec struct {
	cfg      Config
	useDelta bool

	// Controller observation window: stored-byte sums and counts per
	// encoding over the current period.
	saves       int
	fullStored  int64
	fullCount   int64
	deltaStored int64
	deltaCount  int64

	// Switches counts controller encoding changes, for the statistics
	// report.
	Switches int64

	// Hook, when non-nil, observes every controller switch: the new
	// encoding and the delta/full ratio that triggered it. Set it before
	// the run (or on migration install).
	Hook func(toDelta bool, ratio float64)
}

// NewState returns the per-object checkpoint codec for cfg, or nil when
// checkpoint encoding is off (Mode Off).
func NewState(cfg Config) *StateCodec {
	if cfg.Mode == Off {
		return nil
	}
	return &StateCodec{
		cfg:      cfg,
		useDelta: cfg.Mode == Delta || cfg.Mode == Dynamic,
	}
}

// Config returns the codec's configuration.
func (c *StateCodec) Config() Config { return c.cfg }

// UsingDelta reports the encoding currently in force.
func (c *StateCodec) UsingDelta() bool { return c.useDelta }

// ProbeNow reports whether the next save should also size (without storing)
// the encoding not in force — a delta while full encoding is, a full image
// while delta encoding is — so the Dynamic controller keeps observing the
// ratio.
func (c *StateCodec) ProbeNow() bool {
	return c.cfg.Mode == Dynamic && c.saves%probeEvery == 0
}

// RecordSave feeds one checkpoint observation to the controller: the bytes
// actually stored and the encoding used. In Dynamic mode it runs the control
// period.
func (c *StateCodec) RecordSave(stored int, isDelta bool) {
	c.record(stored, isDelta)
	c.tick()
}

// RecordProbe feeds the size the encoding not in force would have stored (see
// ProbeNow).
func (c *StateCodec) RecordProbe(stored int) { c.record(stored, !c.useDelta) }

func (c *StateCodec) record(stored int, isDelta bool) {
	if isDelta {
		c.deltaStored += int64(stored)
		c.deltaCount++
	} else {
		c.fullStored += int64(stored)
		c.fullCount++
	}
}

// tick runs the control period: after ctlPeriod saves with observations on
// both encodings, compare mean stored sizes through the dead zone and
// switch the encoding in force when the ratio leaves it.
func (c *StateCodec) tick() {
	c.saves++
	if c.cfg.Mode != Dynamic || c.saves < ctlPeriod {
		return
	}
	if c.fullCount == 0 || c.deltaCount == 0 {
		// One side unobserved (no probe has landed in the window yet):
		// extend the window rather than decide blind.
		return
	}
	meanFull := float64(c.fullStored) / float64(c.fullCount)
	meanDelta := float64(c.deltaStored) / float64(c.deltaCount)
	ratio := 1.0
	if meanFull > 0 {
		ratio = meanDelta / meanFull
	}
	switch {
	case c.useDelta && ratio > ctlHighRatio:
		c.useDelta = false
		c.switched(ratio)
	case !c.useDelta && ratio < ctlLowRatio:
		c.useDelta = true
		c.switched(ratio)
	}
	c.saves = 0
	c.fullStored, c.fullCount = 0, 0
	c.deltaStored, c.deltaCount = 0, 0
}

func (c *StateCodec) switched(ratio float64) {
	c.Switches++
	if c.Hook != nil {
		c.Hook(c.useDelta, ratio)
	}
}

// Pack compresses enc under the config's compression setting when that
// shrinks it, returning the stored form (always a fresh slice the caller
// owns) and whether it is compressed.
func Pack(cfg Config, enc []byte) (stored []byte, compressed bool) {
	return PackInto(nil, cfg, enc)
}

// PackInto is Pack writing over dst: the stored form reuses dst's capacity
// (reallocating only when it does not fit) and never aliases enc.
func PackInto(dst []byte, cfg Config, enc []byte) (stored []byte, compressed bool) {
	if cfg.Compression == LZ && len(enc) >= minCompressLen && len(enc) <= maxInflated {
		if dst = Compress(dst[:0], enc); len(dst) < len(enc) {
			return dst, true
		}
	}
	return append(dst[:0], enc...), false
}

// Unpack inverts Pack.
func Unpack(stored []byte, compressed bool) ([]byte, error) {
	if !compressed {
		return stored, nil
	}
	return Decompress(stored)
}

// minCompressLen is the payload size below which compression is not
// attempted: the op headers would eat the gain.
const minCompressLen = 64

// corrupt standardizes decode errors.
func corrupt(what string) error { return fmt.Errorf("codec: corrupt %s", what) }

// Package event defines the time-stamped event messages exchanged by Time
// Warp simulation objects, including the anti-messages used to cancel
// erroneous optimistic computation, the total ordering all kernels must agree
// on, and a compact wire encoding used by the communication substrate when
// events are aggregated into physical messages.
package event

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"gowarp/internal/vtime"
)

// ObjectID names a simulation object globally. Objects are numbered densely
// from 0 by the kernel when a model is registered.
type ObjectID int32

// None is the ObjectID used where no object is involved (e.g. kernel-internal
// bookkeeping records).
const None ObjectID = -1

// Sign distinguishes positive event messages from the anti-messages sent to
// annihilate them.
type Sign uint8

const (
	// Positive marks an ordinary event message.
	Positive Sign = iota
	// Negative marks an anti-message.
	Negative
)

// String returns "+" for Positive and "-" for Negative.
func (s Sign) String() string {
	if s == Negative {
		return "-"
	}
	return "+"
}

// Event is a time-stamped message. An event is uniquely identified by its
// (Sender, ID) pair; an anti-message carries the same identity as the
// positive message it cancels, with Sign set to Negative.
//
// Events are immutable once sent: nothing writes a field or a payload byte
// after Send. The cancellation machinery compares payloads long after, and one
// struct may be held at once by its sender's output queue, its receiver's
// input queue and the output records its execution generated (see Pool).
type Event struct {
	// SendTime is the sender's local virtual time when the event was sent.
	SendTime vtime.Time
	// RecvTime is the virtual time at which the receiver must process the
	// event. Time Warp requires RecvTime >= SendTime for causality.
	RecvTime vtime.Time
	// Sender and Receiver are the global IDs of the producing and consuming
	// simulation objects.
	Sender   ObjectID
	Receiver ObjectID
	// ID is a per-sender sequence number making (Sender, ID) unique. It is
	// the annihilation identity and nothing more: IDs are re-drawn when a
	// rolled-back execution re-sends, so they must not influence ordering.
	ID uint64
	// SendSeq numbers this event among the sender's sends at SendTime
	// (resetting whenever the sender's virtual time advances). Unlike ID it
	// is reproducible: the kernel checkpoints and restores it with object
	// state, so a re-executed send carries the same SendSeq — which makes
	// the total event order stable across rollbacks.
	SendSeq uint32
	// Sign is Positive for ordinary events and Negative for anti-messages.
	Sign Sign
	// Kind is an application-defined tag, carried opaquely by the kernel.
	Kind uint32
	// shares counts the holders of this struct beyond the first (see
	// Pool.Share): zero — an event literal, a fresh Get — is one holder. It
	// sits in what was padding, so the struct stays 80 bytes.
	shares uint32
	// Payload is the application data, carried opaquely by the kernel.
	Payload []byte
	// pooledBuf marks Payload's backing array as allocated by a Pool, so
	// recycling the event may retain the array for reuse. Events built
	// outside a pool (or carrying an application- or wire-aliased payload)
	// leave it false and drop the payload on recycle.
	pooledBuf bool
}

// Key returns a by-value copy of e with the payload dropped, for whoever must
// remember an event without holding it (the audit cursors). The copy is safe
// to retain after e itself has been recycled into a Pool; it preserves
// identity, timestamps and the total-order key.
func (e *Event) Key() Event {
	c := *e
	c.shares = 0
	c.Payload = nil
	c.pooledBuf = false
	return c
}

// Holders returns how many holders e has: one, plus one per Pool.Share not
// yet released by a Put. For audits and tests; the kernel never branches on
// it outside migration.
func (e *Event) Holders() int { return int(e.shares) + 1 }

// Anti returns the anti-message cancelling e. The anti-message shares e's
// identity and timestamps; its payload is dropped because annihilation
// matches on identity only.
func (e *Event) Anti() *Event {
	return &Event{
		SendTime: e.SendTime,
		RecvTime: e.RecvTime,
		Sender:   e.Sender,
		Receiver: e.Receiver,
		ID:       e.ID,
		SendSeq:  e.SendSeq,
		Sign:     Negative,
		Kind:     e.Kind,
	}
}

// IsAnti reports whether e is an anti-message.
func (e *Event) IsAnti() bool { return e.Sign == Negative }

// SameIdentity reports whether e and o denote the same logical event,
// i.e. one annihilates the other when their signs differ.
func (e *Event) SameIdentity(o *Event) bool {
	return e.Sender == o.Sender && e.ID == o.ID
}

// SameContent reports whether e and o are indistinguishable to the receiving
// kernel: same receiver, same timestamps and ordering key (send time and
// send sequence), same kind and identical payload bytes. Lazy cancellation
// uses this comparison to decide whether a regenerated output message is a
// "lazy hit" (the prematurely sent original may stand) or a miss (the
// original must be cancelled). The ordering key participates because a
// standing original keeps its position in the total event order; a
// regenerated message with equal payload but a different position is not
// "the same message".
func (e *Event) SameContent(o *Event) bool {
	if e.Receiver != o.Receiver || e.RecvTime != o.RecvTime || e.Kind != o.Kind {
		return false
	}
	if e.SendTime != o.SendTime || e.SendSeq != o.SendSeq {
		return false
	}
	return bytes.Equal(e.Payload, o.Payload)
}

// Compare defines the total order on events that every kernel follows:
// primarily by receive time, then by receiver, sender, send time, the
// reproducible per-send-time sequence number, sign (anti-messages first, so
// an annihilating pair is adjacent) and finally the raw identity. Every
// field but the last is stable across rollback and re-execution, which makes
// the committed event order — and therefore the simulation's results —
// independent of the parallel kernel's scheduling. The raw ID appears only
// as the final tie-break between a message and its transient replacement
// (same stable key, different identity), whose relative order never outlives
// the annihilation that resolves them.
func Compare(e, o *Event) int {
	switch {
	case e.RecvTime != o.RecvTime:
		if e.RecvTime < o.RecvTime {
			return -1
		}
		return 1
	case e.Receiver != o.Receiver:
		if e.Receiver < o.Receiver {
			return -1
		}
		return 1
	case e.Sender != o.Sender:
		if e.Sender < o.Sender {
			return -1
		}
		return 1
	case e.SendTime != o.SendTime:
		if e.SendTime < o.SendTime {
			return -1
		}
		return 1
	case e.SendSeq != o.SendSeq:
		if e.SendSeq < o.SendSeq {
			return -1
		}
		return 1
	case e.Sign != o.Sign:
		// Negative sorts first so annihilation happens before execution.
		if e.Sign == Negative {
			return -1
		}
		return 1
	case e.ID != o.ID:
		if e.ID < o.ID {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// Less reports whether e sorts strictly before o under Compare.
func Less(e, o *Event) bool { return Compare(e, o) < 0 }

// String renders a short human-readable description for logs and tests.
func (e *Event) String() string {
	return fmt.Sprintf("ev%s{%d->%d @%s sent@%s id=%d kind=%d len=%d}",
		e.Sign, e.Sender, e.Receiver, e.RecvTime, e.SendTime, e.ID, e.Kind, len(e.Payload))
}

// Wire encoding. Aggregated physical messages carry a sequence of encoded
// events; the layout is a fixed-size header followed by the payload.
const headerSize = 8 + 8 + 4 + 4 + 8 + 4 + 1 + 4 + 4

// Encode appends the wire form of e to buf and returns the extended slice.
func (e *Event) Encode(buf []byte) []byte {
	var h [headerSize]byte
	binary.LittleEndian.PutUint64(h[0:], uint64(e.SendTime))
	binary.LittleEndian.PutUint64(h[8:], uint64(e.RecvTime))
	binary.LittleEndian.PutUint32(h[16:], uint32(e.Sender))
	binary.LittleEndian.PutUint32(h[20:], uint32(e.Receiver))
	binary.LittleEndian.PutUint64(h[24:], e.ID)
	binary.LittleEndian.PutUint32(h[32:], e.SendSeq)
	h[36] = byte(e.Sign)
	binary.LittleEndian.PutUint32(h[37:], e.Kind)
	binary.LittleEndian.PutUint32(h[41:], uint32(len(e.Payload)))
	buf = append(buf, h[:]...)
	return append(buf, e.Payload...)
}

// ErrTruncated is returned by Decode when buf does not hold a whole event.
var ErrTruncated = errors.New("event: truncated wire data")

// decodeHeader parses one event header from the front of buf into e, leaving
// e.Payload untouched. It returns the payload byte count and an error if buf
// does not hold a whole event.
func decodeHeader(e *Event, buf []byte) (int, error) {
	if len(buf) < headerSize {
		return 0, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(buf[41:]))
	if len(buf) < headerSize+n {
		return 0, ErrTruncated
	}
	e.SendTime = vtime.Time(binary.LittleEndian.Uint64(buf[0:]))
	e.RecvTime = vtime.Time(binary.LittleEndian.Uint64(buf[8:]))
	e.Sender = ObjectID(binary.LittleEndian.Uint32(buf[16:]))
	e.Receiver = ObjectID(binary.LittleEndian.Uint32(buf[20:]))
	e.ID = binary.LittleEndian.Uint64(buf[24:])
	e.SendSeq = binary.LittleEndian.Uint32(buf[32:])
	e.Sign = Sign(buf[36])
	e.Kind = binary.LittleEndian.Uint32(buf[37:])
	return n, nil
}

// Decode reads one event from the front of buf, returning the event and the
// remaining bytes. The returned event's payload aliases buf.
func Decode(buf []byte) (*Event, []byte, error) {
	e := &Event{}
	n, err := decodeHeader(e, buf)
	if err != nil {
		return nil, buf, err
	}
	if n > 0 {
		e.Payload = buf[headerSize : headerSize+n : headerSize+n]
	}
	return e, buf[headerSize+n:], nil
}

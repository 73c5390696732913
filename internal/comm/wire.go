package comm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gowarp/internal/vtime"
)

// Wire framing for distributed transports. Every packet crossing a process
// boundary travels as one length-prefixed, versioned frame:
//
//	u32  length of the frame body (little endian)
//	body:
//	  u8   wire version (WireVersion)
//	  u8   packet kind
//	  u8   GVT color
//	  u8   flags (bit 0: compressed payload; bit 1: the final GVT, on a
//	       PktGVT only)
//	  u32  sending LP (sending rank for PktReport, failing rank for PktStop)
//	  u32  destination LP
//	  ...  kind-specific fields, fixed width, little endian (PktReport:
//	       u32 length, then the report record described below; PktStop:
//	       u32 length, then the reason, at most MaxStopReason bytes;
//	       PktNull: the sending rank's front, eight bytes)
//
// The encoding is defined to round-trip exactly: DecodeFrame rejects any
// frame with trailing bytes, a bad version, an unknown kind or flag, or an
// inner length that disagrees with the body length, and
// AppendFrame(DecodeFrame(b)) reproduces b byte for byte. A PktGVT frames the
// GVT and the optimism window it puts in force, eight bytes each. Migration
// capsules (PktMigrate) carry a live in-process pointer and therefore cannot
// be framed, and neither can a PktGVT that orders moves; encoding either is an
// error, and the kernel refuses dynamic load balancing on distributed
// transports so the case never arises in a run.
//
// A PktReport's payload is one rank's end-of-run report record, written and
// read by the Time Warp kernel (internal/core/distrib.go), little endian,
// every uvarint in its shortest form:
//
//	uvarint  reporting rank
//	uvarint  LP count (every LP the rank hosts)
//	uvarint  object count (every object those LPs host)
//	per LP, in ascending id order:
//	  uvarint  LP id
//	  i64      each stats.Counters field, in declaration order
//	per object, LP by LP in the order above, ascending id within an LP:
//	  uvarint  object id
//	  u32      length of the final state, then its codec.DeltaState bytes
//	  i64      rollbacks
//	  u64      lazy hit ratio (float64 bits)
//	  i64      output comparisons
//	  u8       final cancellation strategy (0 aggressive, 1 lazy)
//	  i64      final checkpoint interval
//
// Names and initial states are not sent: the coordinator has the model.

// WireVersion is the framing version byte; peers with different versions
// refuse the join handshake. Version 2 replaced the report payload's
// encoding/gob value with the record above; version 3 adds the window to
// PktGVT and drops the optimism wake and migration request kinds, so from
// the first GVT on rank 0's window governs every rank; version 4 marks the
// final GVT with a flag, which ends a run that ends well, and gives PktStop,
// which now means failure only, the failing rank and a reason; version 5
// has the kernel send PktNull, each rank's virtual-time front to the others.
const WireVersion = 5

// MaxFrameBody bounds a frame body so a corrupt or hostile length prefix
// cannot drive an allocation of arbitrary size.
const MaxFrameBody = 1 << 26 // 64 MiB

const frameFixedLen = 4 + 4 + 4 // version/kind/color/flags + from + dst

// The frame flags.
const (
	flagComp  = 1 << 0
	flagFinal = 1 << 1
)

// Framing errors. Decoders return (not panic on) every malformed input.
var (
	ErrFrameTruncated = errors.New("comm: truncated wire frame")
	ErrFrameVersion   = errors.New("comm: unsupported wire version")
	ErrFrameKind      = errors.New("comm: unknown packet kind in wire frame")
	ErrFrameTooLarge  = errors.New("comm: wire frame exceeds size bound")
	ErrFrameTrailing  = errors.New("comm: trailing bytes after wire frame body")
	ErrNotWireable    = errors.New("comm: packet kind cannot cross a process boundary")
	ErrFrameFlags     = errors.New("comm: bad wire frame flags")
)

// AppendFrame appends the length-prefixed wire frame for p bound to LP dst
// and returns the extended slice. PktMigrate packets, PktGVT packets that
// order moves, a Final mark on anything but a PktGVT and a stop reason over
// MaxStopReason bytes are not wireable.
func AppendFrame(buf []byte, dst int, p Packet) ([]byte, error) {
	lenAt := len(buf)
	var flags byte
	if p.Comp {
		flags |= flagComp
	}
	if p.Final {
		if p.Kind != PktGVT {
			return buf, fmt.Errorf("%w: final mark on kind %d", ErrFrameFlags, p.Kind)
		}
		flags |= flagFinal
	}
	buf = append(buf, 0, 0, 0, 0) // length back-patched below
	start := len(buf)

	buf = append(buf, WireVersion, byte(p.Kind), p.Color, flags)
	buf = appendU32(buf, uint32(p.From))
	buf = appendU32(buf, uint32(dst))

	switch p.Kind {
	case PktEvents:
		buf = appendU32(buf, uint32(p.Count))
		buf = appendU32(buf, uint32(len(p.Payload)))
		buf = append(buf, p.Payload...)
	case PktToken:
		buf = appendU64(buf, uint64(p.Token.M))
		buf = appendU64(buf, uint64(p.Token.MMsg))
		buf = appendU64(buf, uint64(p.Token.Count))
		buf = appendU64(buf, uint64(p.Token.Round))
		buf = appendU64(buf, p.Token.Epoch)
	case PktGVT:
		if len(p.Moves) > 0 {
			return buf[:lenAt], fmt.Errorf("%w: GVT with object moves", ErrNotWireable)
		}
		buf = appendU64(buf, uint64(p.GVT))
		buf = appendU64(buf, uint64(p.Window))
	case PktNull:
		buf = appendU64(buf, uint64(p.Bound))
	case PktStop:
		if len(p.Payload) > MaxStopReason {
			return buf[:lenAt], fmt.Errorf("%w: stop reason of %d bytes", ErrFrameTooLarge, len(p.Payload))
		}
		buf = appendU32(buf, uint32(len(p.Payload)))
		buf = append(buf, p.Payload...)
	case PktReport:
		buf = appendU32(buf, uint32(len(p.Payload)))
		buf = append(buf, p.Payload...)
	case PktMigrate:
		return buf[:lenAt], fmt.Errorf("%w: migration capsule", ErrNotWireable)
	default:
		return buf[:lenAt], fmt.Errorf("%w: kind %d", ErrFrameKind, p.Kind)
	}

	body := len(buf) - start
	if body > MaxFrameBody {
		return buf[:lenAt], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(body))
	return buf, nil
}

// DecodeFrame decodes one frame body (the bytes after the length prefix),
// returning the destination LP and the reconstructed packet. The returned
// packet's Payload aliases body. Malformed input returns an error; decoding
// never panics.
func DecodeFrame(body []byte) (dst int, p Packet, err error) {
	if len(body) > MaxFrameBody {
		return 0, Packet{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(body))
	}
	if len(body) < frameFixedLen {
		return 0, Packet{}, ErrFrameTruncated
	}
	if body[0] != WireVersion {
		return 0, Packet{}, fmt.Errorf("%w: %d (want %d)", ErrFrameVersion, body[0], WireVersion)
	}
	p.Kind = PacketKind(body[1])
	p.Color = body[2]
	flags := body[3]
	if flags&^byte(flagComp|flagFinal) != 0 {
		return 0, Packet{}, fmt.Errorf("%w: unknown bits %#x", ErrFrameFlags, flags)
	}
	p.Comp, p.Final = flags&flagComp != 0, flags&flagFinal != 0
	if p.Final && p.Kind != PktGVT {
		return 0, Packet{}, fmt.Errorf("%w: final mark on kind %d", ErrFrameFlags, p.Kind)
	}
	p.From = int(int32(binary.LittleEndian.Uint32(body[4:])))
	dst = int(int32(binary.LittleEndian.Uint32(body[8:])))
	rest := body[frameFixedLen:]

	switch p.Kind {
	case PktEvents:
		var n uint32
		if rest, err = takeU32(rest, &n); err != nil {
			return 0, Packet{}, err
		}
		p.Count = int(n)
		if p.Payload, rest, err = takeBytes(rest); err != nil {
			return 0, Packet{}, err
		}
	case PktToken:
		var m, mmsg, cnt, round, epoch uint64
		for _, dstp := range []*uint64{&m, &mmsg, &cnt, &round, &epoch} {
			if rest, err = takeU64(rest, dstp); err != nil {
				return 0, Packet{}, err
			}
		}
		p.Token = Token{
			M:     vtime.Time(m),
			MMsg:  vtime.Time(mmsg),
			Count: int64(cnt),
			Round: int(round),
			Epoch: epoch,
		}
	case PktGVT:
		var g, w uint64
		if rest, err = takeU64(rest, &g); err != nil {
			return 0, Packet{}, err
		}
		if rest, err = takeU64(rest, &w); err != nil {
			return 0, Packet{}, err
		}
		p.GVT, p.Window = vtime.Time(g), vtime.Time(w)
	case PktNull:
		var b uint64
		if rest, err = takeU64(rest, &b); err != nil {
			return 0, Packet{}, err
		}
		p.Bound = vtime.Time(b)
	case PktStop:
		if p.Payload, rest, err = takeBytes(rest); err != nil {
			return 0, Packet{}, err
		}
		if len(p.Payload) > MaxStopReason {
			return 0, Packet{}, fmt.Errorf("%w: stop reason of %d bytes", ErrFrameTooLarge, len(p.Payload))
		}
	case PktReport:
		if p.Payload, rest, err = takeBytes(rest); err != nil {
			return 0, Packet{}, err
		}
	case PktMigrate:
		return 0, Packet{}, fmt.Errorf("%w: migration capsule", ErrNotWireable)
	default:
		return 0, Packet{}, fmt.Errorf("%w: kind %d", ErrFrameKind, p.Kind)
	}

	if len(rest) != 0 {
		return 0, Packet{}, fmt.Errorf("%w: %d byte(s)", ErrFrameTrailing, len(rest))
	}
	return dst, p, nil
}

func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func takeU32(buf []byte, v *uint32) ([]byte, error) {
	if len(buf) < 4 {
		return buf, ErrFrameTruncated
	}
	*v = binary.LittleEndian.Uint32(buf)
	return buf[4:], nil
}

func takeU64(buf []byte, v *uint64) ([]byte, error) {
	if len(buf) < 8 {
		return buf, ErrFrameTruncated
	}
	*v = binary.LittleEndian.Uint64(buf)
	return buf[8:], nil
}

// takeBytes reads a u32 length followed by that many bytes, returning a
// nil slice for a zero length so round-trips stay byte-identical.
func takeBytes(buf []byte) (payload, rest []byte, err error) {
	var n uint32
	if buf, err = takeU32(buf, &n); err != nil {
		return nil, buf, err
	}
	if uint64(n) > uint64(len(buf)) {
		return nil, buf, ErrFrameTruncated
	}
	if n == 0 {
		return nil, buf, nil
	}
	return buf[:n:n], buf[n:], nil
}

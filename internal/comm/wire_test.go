package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"gowarp/internal/codec"
	"gowarp/internal/partition"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// wireSamples covers every wireable packet kind with non-trivial field
// values, so round-trips exercise each encoder arm.
func wireSamples() []struct {
	name string
	dst  int
	p    Packet
} {
	return []struct {
		name string
		dst  int
		p    Packet
	}{
		{"events", 3, Packet{Kind: PktEvents, From: 1, Color: 1, Count: 2, Payload: []byte{0xde, 0xad, 0xbe, 0xef}}},
		{"events-compressed", 7, Packet{Kind: PktEvents, From: 2, Comp: true, Count: 9, Payload: bytes.Repeat([]byte{7}, 100)}},
		{"events-empty", 0, Packet{Kind: PktEvents, From: 5}},
		{"token", 1, Packet{Kind: PktToken, From: 0, Token: Token{
			M: 123, MMsg: vtime.PosInf, Count: -4, Round: 2, Epoch: 17}}},
		{"gvt", 2, Packet{Kind: PktGVT, From: 0, GVT: 99_999}},
		{"gvt-window", 6, Packet{Kind: PktGVT, From: 0, GVT: vtime.NegInf, Window: 4096}},
		{"gvt-final", 3, Packet{Kind: PktGVT, From: 0, GVT: vtime.PosInf, Window: 64, Final: true}},
		{"front", 4, Packet{Kind: PktNull, From: 1, Bound: 42}},
		{"front-idle", 0, Packet{Kind: PktNull, From: 1, Bound: vtime.PosInf}},
		{"stop", 5, Packet{Kind: PktStop, From: 0}},
		{"stop-reason", 0, StopPacket(2, "LP 3, object 15 (phold.15), event kind 0 at t=711, GVT 676: panic: boom")},
		{"report", 0, Packet{Kind: PktReport, From: 1, Payload: []byte("gob bytes here")}},
	}
}

// TestWireRoundTrip: encode → frame → decode must reproduce the packet, and
// re-encoding the decoded packet must reproduce the frame byte for byte.
func TestWireRoundTrip(t *testing.T) {
	for _, tc := range wireSamples() {
		frame, err := AppendFrame(nil, tc.dst, tc.p)
		if err != nil {
			t.Fatalf("%s: AppendFrame: %v", tc.name, err)
		}
		body := frame[4:]
		if got := binary.LittleEndian.Uint32(frame); int(got) != len(body) {
			t.Fatalf("%s: length prefix %d, body %d", tc.name, got, len(body))
		}
		dst, p, err := DecodeFrame(body)
		if err != nil {
			t.Fatalf("%s: DecodeFrame: %v", tc.name, err)
		}
		if dst != tc.dst {
			t.Errorf("%s: dst = %d, want %d", tc.name, dst, tc.dst)
		}
		if p.Kind != tc.p.Kind || p.From != tc.p.From || p.Color != tc.p.Color ||
			p.Comp != tc.p.Comp || p.Final != tc.p.Final || p.Count != tc.p.Count || p.Token != tc.p.Token ||
			p.GVT != tc.p.GVT || p.Window != tc.p.Window || p.Bound != tc.p.Bound || p.Moves != nil {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, p, tc.p)
		}
		if !bytes.Equal(p.Payload, tc.p.Payload) && (len(p.Payload) != 0 || len(tc.p.Payload) != 0) {
			t.Errorf("%s: payload %x, want %x", tc.name, p.Payload, tc.p.Payload)
		}
		reframe, err := AppendFrame(nil, dst, p)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", tc.name, err)
		}
		if !bytes.Equal(frame, reframe) {
			t.Errorf("%s: re-encoded frame differs:\n  %x\n  %x", tc.name, frame, reframe)
		}
	}
}

// TestWireAppendExtends verifies AppendFrame appends (the per-peer send
// buffers rely on it) rather than clobbering.
func TestWireAppendExtends(t *testing.T) {
	prefix := []byte{1, 2, 3}
	frame, err := AppendFrame(append([]byte(nil), prefix...), 1, Packet{Kind: PktStop})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame[:3], prefix) {
		t.Fatalf("prefix clobbered: %x", frame[:6])
	}
	if _, _, err := DecodeFrame(frame[3+4:]); err != nil {
		t.Fatalf("decode after prefix: %v", err)
	}
}

// TestWireTruncated: every strict prefix of a valid body must be rejected
// with an error, never a panic or a bogus success.
func TestWireTruncated(t *testing.T) {
	for _, tc := range wireSamples() {
		frame, err := AppendFrame(nil, tc.dst, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		body := frame[4:]
		for n := 0; n < len(body); n++ {
			if _, _, err := DecodeFrame(body[:n]); err == nil {
				t.Errorf("%s: truncation to %d/%d bytes decoded successfully", tc.name, n, len(body))
			}
		}
	}
}

// TestWireTrailing: extra bytes after a valid body must be rejected.
func TestWireTrailing(t *testing.T) {
	for _, tc := range wireSamples() {
		frame, err := AppendFrame(nil, tc.dst, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		body := append(frame[4:], 0)
		if _, _, err := DecodeFrame(body); !errors.Is(err, ErrFrameTrailing) {
			t.Errorf("%s: trailing byte: err = %v, want ErrFrameTrailing", tc.name, err)
		}
	}
}

// TestWireOversized: bodies beyond MaxFrameBody are rejected on both sides.
func TestWireOversized(t *testing.T) {
	if _, _, err := DecodeFrame(make([]byte, MaxFrameBody+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("decode oversized: err = %v, want ErrFrameTooLarge", err)
	}
	big := Packet{Kind: PktEvents, Payload: make([]byte, MaxFrameBody)}
	buf, err := AppendFrame(nil, 0, big)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("encode oversized: err = %v, want ErrFrameTooLarge", err)
	}
	if len(buf) != 0 {
		t.Errorf("encode oversized left %d bytes in buffer", len(buf))
	}
}

// TestWireRejections: version, kind, flags and inner-length corruption on
// the way in, and packets that cannot be framed on the way out; either way
// the error says which, and a refused encoding appends nothing.
func TestWireRejections(t *testing.T) {
	frame, err := AppendFrame(nil, 1, Packet{Kind: PktEvents, Count: 1, Payload: []byte{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	patched := func(b []byte, at int, v ...byte) []byte {
		b = append([]byte(nil), b...)
		copy(b[at:], v)
		return b
	}
	lying := patched(body, frameFixedLen+4)
	binary.LittleEndian.PutUint32(lying[frameFixedLen+4:], 1<<30)
	short, long := gvtBodies(t)
	stop, overlong, overrun := stopBodies(t)

	for _, tc := range []struct {
		name string
		body []byte
		want error
	}{
		{"bad version", patched(body, 0, WireVersion+1), ErrFrameVersion},
		{"bad kind", patched(body, 1, 0xEE), ErrFrameKind},
		{"unknown flag bit", patched(body, 3, 0x80), ErrFrameFlags},
		{"final flag on events", patched(body, 3, flagFinal), ErrFrameFlags},
		{"final flag on a stop", patched(stop, 3, flagFinal), ErrFrameFlags},
		{"lying inner length", lying, ErrFrameTruncated},
		{"capsule", []byte{WireVersion, byte(PktMigrate), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, ErrNotWireable},
		{"GVT without its window", short, ErrFrameTruncated},
		{"GVT with a byte past its window", long, ErrFrameTrailing},
		{"stop reason running past the body", overrun, ErrFrameTruncated},
		{"stop with a trailing byte", append(stop[:len(stop):len(stop)], 0), ErrFrameTrailing},
		{"stop reason over the cap", overlong, ErrFrameTooLarge},
	} {
		if _, _, err := DecodeFrame(tc.body); !errors.Is(err, tc.want) {
			t.Errorf("%s: decode err = %v, want %v", tc.name, err, tc.want)
		}
	}

	for _, tc := range []struct {
		name string
		p    Packet
		want error
	}{
		{"capsule", Packet{Kind: PktMigrate, Capsule: struct{}{}}, ErrNotWireable},
		{"GVT with moves", Packet{Kind: PktGVT, GVT: 7, Window: 64, Moves: []partition.Move{{Object: 3, From: 0, To: 1}}}, ErrNotWireable},
		{"final events", Packet{Kind: PktEvents, Final: true}, ErrFrameFlags},
		{"final stop", Packet{Kind: PktStop, Final: true}, ErrFrameFlags},
		{"stop reason over the cap", Packet{Kind: PktStop, Payload: make([]byte, MaxStopReason+1)}, ErrFrameTooLarge},
	} {
		if b, err := AppendFrame([]byte{9}, 1, tc.p); !errors.Is(err, tc.want) || len(b) != 1 {
			t.Errorf("%s: encoded %d bytes, err = %v, want %v and nothing appended", tc.name, len(b)-1, err, tc.want)
		}
	}
}

// stopBodies returns a stop's frame body and two corrupt ones: one whose
// reason is a byte over MaxStopReason, and one whose reason length runs a
// byte past the body.
func stopBodies(tb testing.TB) (stop, overlong, overrun []byte) {
	frame, err := AppendFrame(nil, 2, StopPacket(1, "rank 1 gave up"))
	if err != nil {
		tb.Fatal(err)
	}
	stop = frame[4:]
	overlong = binary.LittleEndian.AppendUint32(append([]byte(nil), stop[:frameFixedLen]...), MaxStopReason+1)
	overlong = append(overlong, make([]byte, MaxStopReason+1)...)
	overrun = append([]byte(nil), stop...)
	binary.LittleEndian.PutUint32(overrun[frameFixedLen:], uint32(len(stop)-frameFixedLen-4+1))
	return stop, overlong, overrun
}

// TestStopPacketCutsItsReason: a stop carries the first line of why, at most
// MaxStopReason bytes of it, cut between characters.
func TestStopPacketCutsItsReason(t *testing.T) {
	long := strings.Repeat("é", MaxStopReason) // two bytes each
	for _, tc := range []struct{ why, want string }{
		{"", ""},
		{"boom", "boom"},
		{"LP 3: panic: boom\ngoroutine 7 [running]:\n", "LP 3: panic: boom"},
		{"x" + long, "x" + long[:MaxStopReason-2]},
	} {
		p := StopPacket(4, tc.why)
		if p.Kind != PktStop || p.From != 4 || string(p.Payload) != tc.want {
			t.Errorf("StopPacket(4, %.20q) = %v from %d, %.20q; want a stop from 4 saying %.20q", tc.why, p.Kind, p.From, p.Payload, tc.want)
		}
		if _, err := AppendFrame(nil, 0, p); err != nil {
			t.Errorf("StopPacket(4, %.20q) does not frame: %v", tc.why, err)
		}
	}
}

// gvtBodies returns two corrupt PktGVT frame bodies: one that ends after the
// GVT, as version 2 framed it, and one with a byte after the window.
func gvtBodies(tb testing.TB) (short, long []byte) {
	frame, err := AppendFrame(nil, 2, Packet{Kind: PktGVT, GVT: 500, Window: 100})
	if err != nil {
		tb.Fatal(err)
	}
	body := frame[4:]
	return body[:len(body)-8], append(body[:len(body):len(body)], 0)
}

// FuzzDecodeFrame feeds arbitrary bodies to the decoder: it must never
// panic, and anything it accepts must re-encode to the identical frame
// (the round-trip is the format's definition). An accepted events frame then
// goes where a receiving LP takes it — through the endpoint's decompressor
// and event decoder — which may refuse it but must not panic either.
func FuzzDecodeFrame(f *testing.F) {
	samples := wireSamples()
	// A compressed events frame whose payload is a block header claiming
	// 2^60 bytes: the decompressor once sized its output from it.
	samples = append(samples, struct {
		name string
		dst  int
		p    Packet
	}{"events-inflating", 1, Packet{Kind: PktEvents, From: 0, Comp: true, Count: 1,
		Payload: binary.AppendUvarint(nil, 1<<60)}})
	for _, tc := range samples {
		frame, err := AppendFrame(nil, tc.dst, tc.p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{WireVersion})
	short, long := gvtBodies(f)
	stop, overlong, overrun := stopBodies(f)
	front, err := AppendFrame(nil, 4, Packet{Kind: PktNull, From: 1, Bound: 42})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(front[4 : len(front)-1]) // a front a byte short
	finalStop := append([]byte(nil), stop...)
	finalStop[3] |= flagFinal
	for _, b := range [][]byte{short, long, overlong, overrun, finalStop, append(stop[:len(stop):len(stop)], 0)} {
		f.Add(b)
	}
	var st stats.Counters
	rx := NewSendEndpoint(nil, 2, 1, AggConfig{}, &st)
	rx.Decompress = codec.Decompress
	f.Fuzz(func(t *testing.T, body []byte) {
		dst, p, err := DecodeFrame(body)
		if err != nil {
			return
		}
		if p.Kind == PktEvents {
			q := p
			q.Payload = append([]byte(nil), p.Payload...) // the receiver keeps the buffer
			rx.DecodeEvents(q)                            // errors are the receiver's to report
		}
		reframe, err := AppendFrame(nil, dst, p)
		if err != nil {
			t.Fatalf("accepted body failed to re-encode: %v", err)
		}
		if !bytes.Equal(reframe[4:], body) {
			t.Fatalf("re-encode differs from accepted body:\n  %x\n  %x", body, reframe[4:])
		}
	})
}

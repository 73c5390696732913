package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
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
		{"null", 4, Packet{Kind: PktNull, From: 3, Bound: 42}},
		{"stop", 5, Packet{Kind: PktStop, From: 0}},
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
			p.Comp != tc.p.Comp || p.Count != tc.p.Count || p.Token != tc.p.Token ||
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

// TestWireRejections: version, kind, flags and inner-length corruption.
func TestWireRejections(t *testing.T) {
	frame, err := AppendFrame(nil, 1, Packet{Kind: PktEvents, Count: 1, Payload: []byte{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]

	bad := append([]byte(nil), body...)
	bad[0] = WireVersion + 1
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrFrameVersion) {
		t.Errorf("bad version: err = %v", err)
	}

	bad = append(bad[:0], body...)
	bad[1] = 0xEE
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrFrameKind) {
		t.Errorf("bad kind: err = %v", err)
	}

	bad = append(bad[:0], body...)
	bad[3] = 0x80 // unknown flag bit
	if _, _, err := DecodeFrame(bad); err == nil {
		t.Error("unknown flags decoded successfully")
	}

	// Inner payload length pointing past the body.
	bad = append(bad[:0], body...)
	binary.LittleEndian.PutUint32(bad[frameFixedLen+4:], 1<<30)
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrFrameTruncated) {
		t.Errorf("lying inner length: err = %v", err)
	}

	if _, err := AppendFrame(nil, 0, Packet{Kind: PktMigrate, Capsule: struct{}{}}); !errors.Is(err, ErrNotWireable) {
		t.Errorf("capsule encode: err = %v, want ErrNotWireable", err)
	}
	if _, _, err := DecodeFrame([]byte{WireVersion, byte(PktMigrate), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrNotWireable) {
		t.Errorf("capsule decode: err = %v, want ErrNotWireable", err)
	}
	moves := Packet{Kind: PktGVT, GVT: 7, Window: 64, Moves: []partition.Move{{Object: 3, From: 0, To: 1}}}
	if b, err := AppendFrame([]byte{9}, 1, moves); !errors.Is(err, ErrNotWireable) || len(b) != 1 {
		t.Errorf("GVT with moves: encoded %d bytes, err = %v, want ErrNotWireable and nothing appended", len(b)-1, err)
	}

	short, long := gvtBodies(t)
	if _, _, err := DecodeFrame(short); !errors.Is(err, ErrFrameTruncated) {
		t.Errorf("GVT without its window: err = %v, want ErrFrameTruncated", err)
	}
	if _, _, err := DecodeFrame(long); !errors.Is(err, ErrFrameTrailing) {
		t.Errorf("GVT with a byte past its window: err = %v, want ErrFrameTrailing", err)
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
	f.Add(short)
	f.Add(long)
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

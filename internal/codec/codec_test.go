package codec

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"gowarp/internal/model"
)

func randBytes(r *model.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func TestLZRoundTrip(t *testing.T) {
	r := model.NewRand(1)
	cases := [][]byte{
		nil,
		{},
		{0x42},
		bytes.Repeat([]byte{0}, 10_000),
		bytes.Repeat([]byte("abcd"), 500),
		randBytes(&r, 3),
		randBytes(&r, 4096),
	}
	// Structured: mostly zeros with sparse counters, like a padded state.
	st := make([]byte, 8192)
	for i := 0; i < len(st); i += 513 {
		st[i] = byte(i)
	}
	cases = append(cases, st)

	for i, src := range cases {
		comp := Compress(nil, src)
		got, err := Decompress(comp)
		if err != nil {
			t.Fatalf("case %d: decompress: %v", i, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: round trip mismatch: %d bytes in, %d out", i, len(src), len(got))
		}
	}
}

func TestLZCompressesRedundantData(t *testing.T) {
	src := bytes.Repeat([]byte{0}, 16<<10)
	comp := Compress(nil, src)
	if len(comp) >= len(src)/100 {
		t.Fatalf("zero run barely compressed: %d -> %d", len(src), len(comp))
	}
}

func TestLZDeterministic(t *testing.T) {
	r := model.NewRand(7)
	src := append(randBytes(&r, 512), bytes.Repeat([]byte("xyz"), 300)...)
	if !bytes.Equal(Compress(nil, src), Compress(nil, src)) {
		t.Fatal("compression is not deterministic")
	}
}

func TestLZRejectsCorrupt(t *testing.T) {
	src := bytes.Repeat([]byte("abcd"), 100)
	comp := Compress(nil, src)
	for _, bad := range [][]byte{
		comp[:len(comp)-1],            // truncated
		append([]byte{0xFF}, comp...), // garbage header
	} {
		if _, err := Decompress(bad); err == nil {
			t.Fatal("corrupt input decompressed without error")
		}
	}
}

// FuzzLZ: whatever Compress produces decompresses to its input, and no junk
// block makes Decompress panic or allocate more than it returns — the block's
// length header and copy lengths are input, and blocks arrive in wire frames.
func FuzzLZ(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(bytes.Repeat([]byte("abcd"), 100))
	f.Add(Compress(nil, bytes.Repeat([]byte{0}, 4096)))
	// A header claiming 2^60 bytes over no ops, and one honest about a 2^60-byte
	// run: both reached make() before this target existed.
	f.Add(binary.AppendUvarint(nil, 1<<60))
	f.Add(lzBomb(1 << 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decompress(Compress(nil, data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %d bytes: %d bytes back, %v", len(data), len(got), err)
		}
		if out, err := Decompress(data); err == nil && len(out) > maxInflated {
			t.Fatalf("junk block inflated to %d bytes", len(out))
		}
	})
}

// lzBomb is a well-formed block of a dozen bytes that claims, header and ops
// agreeing, to decompress to n+1 bytes: one literal and a run copying it.
func lzBomb(n uint64) []byte {
	b := binary.AppendUvarint(nil, n+1)
	b = append(b, opLiteral, 1, 'x', opCopy, 1)
	return binary.AppendUvarint(b, n)
}

func TestLZRejectsInflation(t *testing.T) {
	for _, bad := range [][]byte{
		binary.AppendUvarint(nil, 1<<60), // the header alone
		lzBomb(1 << 60),
		lzBomb(maxInflated),
	} {
		if out, err := Decompress(bad); err == nil {
			t.Errorf("block %x inflated to %d bytes without error", bad, len(out))
		}
	}
	if out, err := Decompress(lzBomb(1 << 16)); err != nil || len(out) != 1<<16+1 {
		t.Errorf("a 64 KiB run: %d bytes, %v", len(out), err)
	}
	// Ops that outrun the header stop at the op, not after running it.
	short := lzBomb(1 << 20)
	short[0], short[1], short[2] = 0x82, 0x80, 0x00 // header: 2 bytes, same width
	if out, err := Decompress(short); err == nil {
		t.Errorf("a 1 MiB run under a 2-byte header inflated to %d bytes", len(out))
	}
	// A header with nothing behind it is refused without being believed: the
	// largest length it may claim allocates a first chunk, not the claim.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decompress(binary.AppendUvarint(nil, maxInflated))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 1<<20 {
		t.Errorf("an empty block claiming %d bytes: allocated %d, err %v", maxInflated, grew, err)
	}
}

// What Pack stores Unpack restores, at any size: past the length Decompress
// accepts, the stored form is the input.
func TestPackLeavesOversizeUncompressed(t *testing.T) {
	cfg := Config{Mode: Full, Compression: LZ}
	huge := make([]byte, maxInflated+1) // zeros: the most compressible input there is
	stored, comp := Pack(cfg, huge)
	if comp || len(stored) != len(huge) {
		t.Fatalf("a %d-byte block was stored as %d bytes, compressed=%v", len(huge), len(stored), comp)
	}
	if stored, comp = Pack(cfg, huge[:maxInflated]); !comp {
		t.Fatal("a block of exactly the bound was not compressed")
	}
	if got, err := Unpack(stored, comp); err != nil || len(got) != maxInflated {
		t.Fatalf("unpack at the bound: %d bytes, %v", len(got), err)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	r := model.NewRand(3)
	old := randBytes(&r, 4096)

	mutate := func(src []byte, at ...int) []byte {
		out := append([]byte(nil), src...)
		for _, i := range at {
			out[i]++
		}
		return out
	}

	cases := [][2][]byte{
		{old, old},                          // identical
		{old, mutate(old, 0)},               // first byte
		{old, mutate(old, len(old)-1)},      // last byte
		{old, mutate(old, 17, 18, 19, 900)}, // sparse runs
		{old, old[:100]},                    // shrink
		{old[:100], old},                    // grow
		{nil, old},                          // from empty
		{old, nil},                          // to empty
		{old, randBytes(&r, 4096)},          // everything changed
	}
	for i, c := range cases {
		d := AppendDelta(nil, c[0], c[1])
		got, err := ApplyDelta(c[0], d)
		if err != nil {
			t.Fatalf("case %d: apply: %v", i, err)
		}
		if !bytes.Equal(got, c[1]) {
			t.Fatalf("case %d: reconstruction mismatch", i)
		}
	}
}

func TestDeltaIsSparse(t *testing.T) {
	old := make([]byte, 16<<10)
	new := append([]byte(nil), old...)
	new[40]++
	new[9000]++
	d := AppendDelta(nil, old, new)
	if len(d) > 64 {
		t.Fatalf("two-byte change produced a %d-byte delta", len(d))
	}
}

func TestDeltaRejectsCorrupt(t *testing.T) {
	old := bytes.Repeat([]byte{1}, 256)
	new := append([]byte(nil), old...)
	new[7] = 9
	d := AppendDelta(nil, old, new)
	if _, err := ApplyDelta(old, d[:len(d)-1]); err == nil {
		t.Fatal("truncated delta applied without error")
	}
	if _, err := ApplyDelta(old[:4], d); err == nil {
		t.Fatal("delta against wrong base applied without error")
	}
}

func TestPackUnpack(t *testing.T) {
	small := []byte("tiny")
	big := bytes.Repeat([]byte("abcdefgh"), 256)

	for _, cfg := range []Config{
		{Mode: Full},
		{Mode: Full, Compression: LZ},
	} {
		for _, enc := range [][]byte{small, big} {
			stored, comp := Pack(cfg, enc)
			if comp && cfg.Compression != LZ {
				t.Fatal("compressed without LZ configured")
			}
			got, err := Unpack(stored, comp)
			if err != nil {
				t.Fatalf("unpack: %v", err)
			}
			if !bytes.Equal(got, enc) {
				t.Fatal("pack/unpack mismatch")
			}
			// Stored form must not alias the input.
			if !comp {
				was := enc[0]
				stored[0] ^= 0xFF
				if enc[0] != was {
					t.Fatal("Pack aliased its input")
				}
				stored[0] ^= 0xFF
			}
		}
	}
	cfg := Config{Mode: Full, Compression: LZ}
	if stored, comp := Pack(cfg, big); !comp || len(stored) >= len(big) {
		t.Fatalf("redundant payload not compressed: %d -> %d (comp=%v)", len(big), len(stored), comp)
	}
	if _, comp := Pack(cfg, small); comp {
		t.Fatal("sub-threshold payload compressed")
	}
}

func TestNewStateModes(t *testing.T) {
	if NewState(Config{}) != nil {
		t.Fatal("Mode Off should yield a nil codec")
	}
	if c := NewState(Config{Mode: Full}); c == nil || c.UsingDelta() {
		t.Fatal("Full mode should start with delta off")
	}
	for _, m := range []Mode{Delta, Dynamic} {
		if c := NewState(Config{Mode: m}); c == nil || !c.UsingDelta() {
			t.Fatalf("mode %v should start with delta on", m)
		}
	}
}

// TestDynamicControllerSwitches: a controller in delta mode sees the full side
// through probes (ProbeNow), leaves delta encoding when deltas are as big as
// full images, and comes back once probed deltas are small.
func TestDynamicControllerSwitches(t *testing.T) {
	c := NewState(Config{Mode: Dynamic})
	var hooks []bool
	c.Hook = func(toDelta bool, ratio float64) { hooks = append(hooks, toDelta) }

	// Deltas as big as the probed full images: the controller must fall back
	// to full encoding.
	for i := 0; i < 2*ctlPeriod && c.UsingDelta(); i++ {
		if c.ProbeNow() {
			c.RecordProbe(1000)
		}
		c.RecordSave(1000, true)
	}
	if c.UsingDelta() {
		t.Fatal("controller kept delta despite ratio ~1")
	}

	// Now deltas are tiny (via probes): controller must switch back.
	for i := 0; i < 8*ctlPeriod && !c.UsingDelta(); i++ {
		if c.ProbeNow() {
			c.RecordProbe(10)
		}
		c.RecordSave(1000, false)
	}
	if !c.UsingDelta() {
		t.Fatal("controller never returned to delta despite tiny probes")
	}
	if c.Switches != int64(len(hooks)) || c.Switches != 2 {
		t.Fatalf("switch accounting: Switches=%d hooks=%d", c.Switches, len(hooks))
	}
	// Hook order: first to full (false), then to delta (true).
	if hooks[0] != false || hooks[1] != true {
		t.Fatalf("unexpected hook sequence %v", hooks)
	}
}

func TestWireReaderRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint64(b, 12345)
	b = AppendInt64(b, -7)
	b = AppendBytes(b, []byte("payload"))
	b = AppendBytes(b, nil)

	r := NewReader(b)
	if got := r.Uint64(); got != 12345 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Int64(); got != -7 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("empty Bytes = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}

	// Truncated and trailing inputs must error.
	if r := NewReader(b[:5]); r.Uint64() != 0 || r.Err() == nil {
		t.Fatal("short read not detected")
	}
	r2 := NewReader(append(append([]byte(nil), b...), 0xEE))
	r2.Uint64()
	r2.Int64()
	r2.Bytes()
	r2.Bytes()
	if r2.Err() == nil {
		t.Fatal("trailing bytes not detected")
	}
}

func TestConfigString(t *testing.T) {
	if s := (Config{}).String(); s != "off" {
		t.Fatalf("zero config String = %q", s)
	}
	if s := (Config{Mode: Delta, Compression: LZ}).String(); s != "delta,lz" {
		t.Fatalf("String = %q", s)
	}
}

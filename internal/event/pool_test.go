package event

import (
	"bytes"
	"testing"
	"unsafe"
)

func poolEvent(id uint64) *Event {
	return &Event{
		SendTime: 5, RecvTime: 10, Sender: 1, Receiver: 2,
		ID: id, SendSeq: uint32(id), Sign: Positive, Kind: 3,
		Payload: []byte{1, 2, 3, 4},
	}
}

func TestPoolRecyclesStructs(t *testing.T) {
	p := NewPool()
	e := p.Get()
	p.SetPayload(e, []byte{9, 9})
	p.Put(e)
	e2 := p.Get()
	if e2 != e {
		t.Error("Get did not reuse the recycled struct")
	}
	if len(e2.Payload) != 0 || cap(e2.Payload) < 2 {
		t.Errorf("recycled event payload = len %d cap %d; want empty with retained backing",
			len(e2.Payload), cap(e2.Payload))
	}
	if e2.ID != 0 || e2.RecvTime != 0 || e2.Sign != Positive {
		t.Error("recycled event not zeroed")
	}
	if a, r := p.Stats(); a != 1 || r != 1 {
		t.Errorf("Stats = %d allocs / %d reuses, want 1/1", a, r)
	}
}

func TestPoolDropsForeignBacking(t *testing.T) {
	p := NewPool()
	foreign := []byte{1, 2, 3}
	e := p.Get()
	e.Payload = foreign // aliased, not set via SetPayload
	p.Put(e)
	e2 := p.Get()
	if e2.Payload != nil {
		t.Error("pool retained foreign payload backing")
	}
	p.SetPayload(e2, []byte{7})
	if &foreign[0] == &e2.Payload[0] {
		t.Error("SetPayload wrote into foreign backing")
	}
}

func TestPoolCloneIndependence(t *testing.T) {
	p := NewPool()
	src := poolEvent(42)
	c := p.Clone(src)
	if Compare(c, src) != 0 || !bytes.Equal(c.Payload, src.Payload) {
		t.Fatalf("clone differs: %+v vs %+v", c, src)
	}
	c.Payload[0] = 0xFF
	if src.Payload[0] == 0xFF {
		t.Error("clone payload aliases the source")
	}
}

func TestPoolAnti(t *testing.T) {
	p := NewPool()
	src := poolEvent(7)
	a := p.Anti(src)
	want := src.Anti()
	if a.Sign != Negative || Compare(a, want) != 0 || len(a.Payload) != 0 {
		t.Errorf("pool Anti = %+v, want %+v", a, want)
	}
}

func TestPoolDecodeInto(t *testing.T) {
	p := NewPool()
	src := poolEvent(99)
	buf := src.Encode(nil)
	e, rest, err := p.DecodeInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("%d bytes left over", len(rest))
	}
	if Compare(e, src) != 0 || !bytes.Equal(e.Payload, src.Payload) {
		t.Errorf("decoded %+v, want %+v", e, src)
	}
	// The decoded payload must be pool-owned, not an alias of the wire buffer.
	e.Payload[0] ^= 0xFF
	if buf[headerSize] == e.Payload[0] {
		t.Error("DecodeInto aliased the wire buffer")
	}
	if _, _, err := p.DecodeInto(buf[:3]); err == nil {
		t.Error("short buffer decoded without error")
	}
}

func TestNilPoolFallsBack(t *testing.T) {
	var p *Pool
	e := p.Get()
	if e == nil {
		t.Fatal("nil pool Get returned nil")
	}
	p.SetPayload(e, []byte{1, 2})
	if !bytes.Equal(e.Payload, []byte{1, 2}) {
		t.Error("nil pool SetPayload failed")
	}
	p.Put(e) // must not panic
	p.Put(nil)
	if a, r := p.Stats(); a != 0 || r != 0 {
		t.Error("nil pool Stats not zero")
	}
}

// TestPoolSteadyStateAllocatesNothing pins the tentpole contract: once the
// free list is warm, a full event lifetime — acquire, fill payload, clone for
// local delivery, generate an anti-message, recycle all three — costs zero
// heap allocations.
func TestPoolSteadyStateAllocatesNothing(t *testing.T) {
	p := NewPool()
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	cycle := func() {
		e := p.Get()
		e.SendTime, e.RecvTime = 5, 10
		e.Sender, e.Receiver = 1, 2
		e.ID, e.SendSeq = 77, 3
		e.Sign, e.Kind = Positive, 1
		p.SetPayload(e, payload)
		c := p.Clone(e)
		a := p.Anti(e)
		p.Put(a)
		p.Put(c)
		p.Put(e)
	}
	// Warm the free list and the payload backing arrays.
	for i := 0; i < 8; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("steady-state pool cycle allocated %.1f times per run, want 0", n)
	}
}

// TestPoolDecodeSteadyStateAllocatesNothing extends the guard to the wire
// path: decoding into a warm pool must not allocate either.
func TestPoolDecodeSteadyStateAllocatesNothing(t *testing.T) {
	p := NewPool()
	buf := poolEvent(5).Encode(nil)
	cycle := func() {
		e, _, err := p.DecodeInto(buf)
		if err != nil {
			panic(err)
		}
		p.Put(e)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("steady-state DecodeInto allocated %.1f times per run, want 0", n)
	}
}

// TestEventSize pins the struct size: the holder count lives in what was
// padding after Kind, and an event is still 80 bytes.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 80 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 80", n)
	}
}

// TestSharedEventOutlivesAllButTheLastPut: a Put by one of two holders leaves
// the event intact for the other, and the last Put recycles it.
func TestSharedEventOutlivesAllButTheLastPut(t *testing.T) {
	p := NewPool()
	e := p.Get()
	e.ID, e.RecvTime = 7, 10
	p.SetPayload(e, []byte{1, 2, 3})
	if p.Share(e) != e || p.Share(e) != e {
		t.Fatal("Share did not return its argument")
	}
	if e.Holders() != 3 {
		t.Fatalf("Holders = %d after two Shares, want 3", e.Holders())
	}
	for left := 2; left >= 1; left-- {
		p.Put(e)
		if e.Holders() != left || e.ID != 7 || e.RecvTime != 10 || !bytes.Equal(e.Payload, []byte{1, 2, 3}) {
			t.Fatalf("with %d holder(s) left the event reads %+v", left, e)
		}
		if got := p.Get(); got == e {
			t.Fatalf("event recycled with %d holder(s) left", left)
		}
	}
	p.Put(e)
	if e.ID != 0 || len(e.Payload) != 0 {
		t.Errorf("the last Put did not clear the event: %+v", e)
	}
	if got := p.Get(); got != e {
		t.Error("the last Put did not recycle the event")
	}
}

// TestDerivedEventsHaveOneHolder: whatever its source's count, a Clone, a
// key, an anti-message, a decoded event and a recycled Get start with one
// holder.
func TestDerivedEventsHaveOneHolder(t *testing.T) {
	p := NewPool()
	src := p.Clone(poolEvent(3))
	p.Share(src)
	p.Share(src)
	key := src.Key()
	decoded, _, err := p.DecodeInto(src.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Event{
		"Clone": p.Clone(src), "Key": &key, "Pool.Anti": p.Anti(src),
		"Event.Anti": src.Anti(), "DecodeInto": decoded,
	} {
		if e.Holders() != 1 {
			t.Errorf("%s of an event with 3 holders has %d", name, e.Holders())
		}
	}
	p.Put(src)
	p.Put(src)
	p.Put(src)
	if e := p.Get(); e != src || e.Holders() != 1 {
		t.Errorf("recycled Get returned %p with %d holder(s), want %p with 1", e, e.Holders(), src)
	}
}

// TestNilPoolNeitherCountsNorRecycles: unpooled layers leave lifetimes to the
// garbage collector, so Share on a nil pool must not start a count that no
// Put will ever release.
func TestNilPoolNeitherCountsNorRecycles(t *testing.T) {
	var p *Pool
	e := poolEvent(1)
	if p.Share(e) != e || e.Holders() != 1 {
		t.Errorf("nil pool Share counted: %d holders", e.Holders())
	}
	p.Put(e)
	if e.ID != 1 || e.Holders() != 1 {
		t.Errorf("nil pool Put touched the event: %+v", e)
	}
	// An event somebody shares through a real pool keeps its count through a
	// nil pool's hands.
	q := NewPool()
	q.Share(e)
	p.Put(e)
	if e.Holders() != 2 {
		t.Errorf("nil pool Put released a holder: %d left, want 2", e.Holders())
	}
}

// TestPoolLineSize: a Pool fills whole cache lines, so no two workers' pools
// share one.
func TestPoolLineSize(t *testing.T) {
	if size := unsafe.Sizeof(Pool{}); size%64 != 0 {
		t.Errorf("unsafe.Sizeof(Pool{}) = %d, want a multiple of 64", size)
	}
}

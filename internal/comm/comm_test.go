package comm

import (
	"testing"
	"time"

	"gowarp/internal/event"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

func ev(id uint64, recv vtime.Time, payload int) *event.Event {
	return &event.Event{
		RecvTime: recv, Receiver: 5, Sender: 1, ID: id,
		Payload: make([]byte, payload),
	}
}

func twoLPs(cfg AggConfig) (*InProc, *Endpoint, *Endpoint, *stats.Counters, *stats.Counters) {
	n := NewInProc(2)
	var st0, st1 stats.Counters
	e0 := NewEndpoint(n, 0, cfg, &st0)
	e1 := NewEndpoint(n, 1, cfg, &st1)
	return n, e0, e1, &st0, &st1
}

func recvAll(t *testing.T, e *Endpoint) []*event.Event {
	t.Helper()
	var out []*event.Event
	for {
		select {
		case p := <-e.Recv():
			if p.Kind != PktEvents {
				t.Fatalf("unexpected packet kind %d", p.Kind)
			}
			evs, err := e.DecodeEvents(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, evs...)
		default:
			return out
		}
	}
}

func TestNoAggregationDeliversImmediately(t *testing.T) {
	_, e0, e1, st0, _ := twoLPs(AggConfig{Policy: NoAggregation})
	e0.Send(ev(1, 10, 4), 1, false)
	e0.Send(ev(2, 20, 4), 1, false)
	got := recvAll(t, e1)
	if len(got) != 2 {
		t.Fatalf("delivered %d events", len(got))
	}
	if got[0].ID != 1 || got[1].ID != 2 {
		t.Error("FIFO order broken")
	}
	if st0.PhysicalMsgsSent != 2 {
		t.Errorf("physical msgs = %d, want 2 (no aggregation)", st0.PhysicalMsgsSent)
	}
}

func TestFAWAggregatesUntilWindow(t *testing.T) {
	cfg := AggConfig{Policy: FAW, Window: 10 * time.Millisecond}
	_, e0, e1, st0, _ := twoLPs(cfg)
	e0.Send(ev(1, 10, 4), 1, false)
	e0.Send(ev(2, 20, 4), 1, false)
	if got := recvAll(t, e1); len(got) != 0 {
		t.Fatalf("events leaked before the window expired: %d", len(got))
	}
	// Before the window: Poll must not flush.
	e0.Poll(time.Now())
	if st0.PhysicalMsgsSent != 0 {
		t.Fatal("premature flush")
	}
	// After the window: one physical message carrying both events.
	e0.Poll(time.Now().Add(cfg.Window))
	got := recvAll(t, e1)
	if len(got) != 2 {
		t.Fatalf("delivered %d events", len(got))
	}
	if st0.PhysicalMsgsSent != 1 {
		t.Errorf("physical msgs = %d, want 1", st0.PhysicalMsgsSent)
	}
	if st0.AggregatedEvents != 2 {
		t.Errorf("aggregated = %d, want 2", st0.AggregatedEvents)
	}
	if st0.FlushWindow != 1 {
		t.Errorf("window flushes = %d", st0.FlushWindow)
	}
}

func TestUrgentFlush(t *testing.T) {
	cfg := AggConfig{Policy: FAW, Window: time.Hour}
	_, e0, e1, st0, _ := twoLPs(cfg)
	e0.Send(ev(1, 10, 4), 1, false)
	anti := ev(2, 5, 0)
	anti.Sign = event.Negative
	e0.Send(anti, 1, true)
	got := recvAll(t, e1)
	if len(got) != 2 {
		t.Fatalf("urgent flush delivered %d events, want buffered+anti", len(got))
	}
	if got[0].ID != 1 || !got[1].IsAnti() {
		t.Error("ordering: buffered positive must precede the anti")
	}
	if st0.FlushUrgent != 1 {
		t.Errorf("urgent flushes = %d", st0.FlushUrgent)
	}
}

func TestCapacityFlush(t *testing.T) {
	cfg := AggConfig{Policy: FAW, Window: time.Hour, MaxEvents: 3}
	_, e0, e1, st0, _ := twoLPs(cfg)
	for i := uint64(1); i <= 3; i++ {
		e0.Send(ev(i, vtime.Time(i), 4), 1, false)
	}
	if got := recvAll(t, e1); len(got) != 3 {
		t.Fatalf("capacity flush delivered %d events", len(got))
	}
	if st0.FlushCapacity != 1 {
		t.Errorf("capacity flushes = %d", st0.FlushCapacity)
	}
}

func TestByteCapacityFlush(t *testing.T) {
	cfg := AggConfig{Policy: FAW, Window: time.Hour, MaxEvents: 1000, MaxBytes: 100}
	_, e0, e1, _, _ := twoLPs(cfg)
	e0.Send(ev(1, 1, 80), 1, false) // 45-byte header + 80 > 100
	if got := recvAll(t, e1); len(got) != 1 {
		t.Fatalf("byte-capacity flush delivered %d events", len(got))
	}
}

func TestNextDeadline(t *testing.T) {
	cfg := AggConfig{Policy: FAW, Window: 50 * time.Millisecond}
	_, e0, _, _, _ := twoLPs(cfg)
	if _, ok := e0.NextDeadline(); ok {
		t.Fatal("deadline with empty buffers")
	}
	before := time.Now()
	e0.Send(ev(1, 10, 4), 1, false)
	dl, ok := e0.NextDeadline()
	if !ok {
		t.Fatal("no deadline with a pending aggregate")
	}
	if dl.Before(before.Add(cfg.Window-time.Millisecond)) || dl.After(before.Add(cfg.Window+50*time.Millisecond)) {
		t.Errorf("deadline %s out of expected range", dl.Sub(before))
	}
}

// TestEmptyBuffersShortCircuit pins the non-empty buffer count behind the
// FlushAll/Poll/NextDeadline early returns: it must follow every way a
// buffer fills and empties, or a sweep would skip a pending aggregate.
func TestEmptyBuffersShortCircuit(t *testing.T) {
	n := NewInProc(3)
	var st stats.Counters
	e0 := NewEndpoint(n, 0, AggConfig{Policy: FAW, Window: time.Hour, MaxEvents: 2}, &st)
	want := func(nonEmpty int, buffered int64) {
		t.Helper()
		_, pending := e0.NextDeadline()
		if e0.nonEmpty != nonEmpty || e0.Buffered() != buffered || pending != (nonEmpty > 0) {
			t.Fatalf("nonEmpty %d, buffered %d, deadline pending %v; want %d, %d",
				e0.nonEmpty, e0.Buffered(), pending, nonEmpty, buffered)
		}
	}
	want(0, 0)
	e0.Send(ev(1, 10, 4), 1, false)
	e0.Send(ev(2, 10, 4), 2, false)
	want(2, 2)
	e0.Send(ev(3, 10, 4), 1, false) // capacity flush empties buffer 1
	want(1, 1)
	e0.Send(ev(4, 10, 4), 1, true) // urgent: in and straight out
	want(1, 1)
	e0.Poll(time.Now().Add(2 * time.Hour)) // window flush empties buffer 2
	want(0, 0)
	e0.Send(ev(5, 10, 4), 2, false)
	e0.FlushAll(FlushIdle)
	want(0, 0)
	if got := len(n.Recv(1)) + len(n.Recv(2)); got != 4 {
		t.Fatalf("%d packets delivered, want 4", got)
	}
}

func TestGVTColorAccounting(t *testing.T) {
	_, e0, e1, _, _ := twoLPs(AggConfig{Policy: NoAggregation})
	e0.Send(ev(1, 10, 4), 1, false)
	e0.Send(ev(2, 30, 4), 1, false)
	if s, r := e0.Counts(0); s != 2 || r != 0 {
		t.Fatalf("sender counts = (%d,%d)", s, r)
	}
	for range [2]int{} {
		p := <-e1.Recv()
		if _, err := e1.DecodeEvents(p); err != nil {
			t.Fatal(err)
		}
	}
	if s, r := e1.Counts(0); s != 0 || r != 2 {
		t.Fatalf("receiver counts = (%d,%d)", s, r)
	}
	// Flip to red: subsequent sends count under the new color and tmin
	// tracks the minimum receive time.
	e0.FlipColor(1)
	if e0.Color() != 1 || e0.TMin() != vtime.PosInf {
		t.Fatal("flip did not reset")
	}
	e0.Send(ev(3, 50, 4), 1, false)
	e0.Send(ev(4, 20, 4), 1, false)
	if e0.TMin() != 20 {
		t.Errorf("TMin = %s, want 20", e0.TMin())
	}
	if s, _ := e0.Counts(1); s != 2 {
		t.Errorf("red sent = %d", s)
	}
	if s, _ := e0.Counts(0); s != 2 {
		t.Errorf("white sent changed: %d", s)
	}
}

func TestFlipColorFlushesBuffers(t *testing.T) {
	cfg := AggConfig{Policy: FAW, Window: time.Hour}
	_, e0, e1, _, _ := twoLPs(cfg)
	e0.Send(ev(1, 10, 4), 1, false)
	e0.FlipColor(1)
	p := <-e1.Recv()
	if p.Color != 0 {
		t.Errorf("flushed packet color = %d, want pre-flip color 0", p.Color)
	}
	if p.Count != 1 {
		t.Errorf("flushed packet count = %d", p.Count)
	}
}

func TestControlPackets(t *testing.T) {
	n := NewInProc(3)
	var st [3]stats.Counters
	eps := make([]*Endpoint, 3)
	for i := range eps {
		eps[i] = NewEndpoint(n, i, AggConfig{}, &st[i])
	}
	tok := Token{M: 100, MMsg: vtime.PosInf, Count: 3, Epoch: 1}
	eps[0].SendToken(1, tok)
	p := <-eps[1].Recv()
	if p.Kind != PktToken || p.Token != tok {
		t.Fatalf("token mangled: %+v", p)
	}
	eps[0].BroadcastGVT(77, 500, nil, true)
	for i := 1; i < 3; i++ {
		g := <-eps[i].Recv()
		if g.Kind != PktGVT || g.GVT != 77 || g.Window != 500 || !g.Final {
			t.Fatalf("GVT broadcast mangled: %+v", g)
		}
	}
	select {
	case p := <-eps[0].Recv():
		t.Fatalf("broadcast delivered to self: %+v", p)
	default:
	}
}

func TestSAAWConvergesTowardTarget(t *testing.T) {
	cfg := AggConfig{Policy: SAAW, Window: maxWindow} // start at the cap
	_, e0, e1, st0, _ := twoLPs(cfg)
	// Feed a steady synthetic arrival rate of ~1000 events/s by sending in
	// bursts and flushing with idle causes (cause-independent estimator).
	for i := 0; i < 400; i++ {
		e0.Send(ev(uint64(i), vtime.Time(i), 4), 1, false)
		if i%4 == 3 {
			e0.FlushAll(FlushIdle)
		}
		time.Sleep(50 * time.Microsecond)
	}
	recvAll(t, e1)
	w := e0.Window(1)
	// Rate ≈ 1/50µs... wall-clock dependent; just require the window moved
	// far off the cap it started at and adjustments were recorded.
	if w >= maxWindow/2 {
		t.Errorf("SAAW window did not adapt: %s", w)
	}
	if st0.WindowAdjustments == 0 {
		t.Error("no window adjustments recorded")
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{PerMessage: time.Millisecond, PerByte: time.Microsecond}
	if got := c.Cost(100); got != time.Millisecond+100*time.Microsecond {
		t.Errorf("Cost(100) = %s", got)
	}
	start := time.Now()
	c2 := CostModel{PerMessage: 2 * time.Millisecond}
	c2.Charge(0)
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("Charge burned only %s", elapsed)
	}
	if DefaultCostModel().PerMessage <= 0 {
		t.Error("default cost model must charge per message")
	}
}

// TestInProcSink: with a sink, InProc's Send charges the cost and then hands
// the packet over on the sender's goroutine, before it returns, in send
// order; Recv has no channel, Poll, Flush and Arm have nothing to do, and no
// channel is ever made.
func TestInProcSink(t *testing.T) {
	cost := CostModel{PerMessage: time.Millisecond}
	n := NewInProc(2, WithCost(cost))
	var got []int
	var sent time.Time
	n.SetSink(func(lp int, p Packet) {
		if lp != 1 {
			t.Errorf("packet for LP %d, sent to 1", lp)
		}
		if d := time.Since(sent); d < cost.PerMessage {
			t.Errorf("sink called %v into Send, before the %v charge", d, cost.PerMessage)
		}
		got = append(got, p.Count)
	}, func() { t.Error("InProc rang") })
	for i := 0; i < 3; i++ {
		sent = time.Now()
		n.Send(1, Packet{Kind: PktEvents, Count: i}, 0)
		if len(got) != i+1 || got[i] != i {
			t.Fatalf("after send %d the sink holds %v", i, got)
		}
	}
	if n.Recv(0) != nil || n.Recv(1) != nil {
		t.Error("Recv returned a channel beside the sink")
	}
	n.Poll()
	n.Flush(true)
	n.Flush(false)
	n.Arm()
	if len(got) != 3 {
		t.Errorf("Poll, Flush or Arm delivered: the sink holds %v", got)
	}
	if n.inboxes != nil {
		t.Errorf("a transport with a sink made %d channels", len(n.inboxes))
	}
}

func TestPolicyStrings(t *testing.T) {
	if NoAggregation.String() != "none" || FAW.String() != "faw" || SAAW.String() != "saaw" {
		t.Error("policy names broken")
	}
}

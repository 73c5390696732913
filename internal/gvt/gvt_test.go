package gvt

import (
	"testing"
	"time"

	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// ring builds n LPs with endpoints and managers on a zero-cost network.
type ring struct {
	n    int
	net  *comm.InProc
	eps  []*comm.Endpoint
	mgrs []*Manager
	st   []stats.Counters
}

func newRing(n int) *ring {
	r := &ring{n: n, net: comm.NewInProc(n)}
	r.st = make([]stats.Counters, n)
	for i := 0; i < n; i++ {
		r.eps = append(r.eps, comm.NewEndpoint(r.net, i, comm.AggConfig{}, &r.st[i]))
	}
	for i := 0; i < n; i++ {
		r.mgrs = append(r.mgrs, NewManager(i, n, r.eps[i], time.Nanosecond, &r.st[i]))
	}
	return r
}

// pump drains every inbox, forwarding tokens through the managers with the
// given local minima, until a GVT is found or traffic quiesces. Event
// packets are decoded (so receive counts advance) and dropped.
func (r *ring) pump(t *testing.T, localMin func(lp int) vtime.Time) (vtime.Time, bool) {
	t.Helper()
	for round := 0; round < 1000; round++ {
		progress := false
		for i := 0; i < r.n; i++ {
			select {
			case p := <-r.eps[i].Recv():
				progress = true
				switch p.Kind {
				case comm.PktToken:
					if g, found := r.mgrs[i].OnToken(p.Token, localMin(i)); found {
						return g, true
					}
				case comm.PktEvents:
					if _, err := r.eps[i].DecodeEvents(p); err != nil {
						t.Fatal(err)
					}
				}
			default:
			}
		}
		if !progress {
			return 0, false
		}
	}
	t.Fatal("token did not converge")
	return 0, false
}

func TestSingleLPShortCircuit(t *testing.T) {
	r := newRing(1)
	g, found := r.mgrs[0].MaybeInitiate(42, true)
	if !found || g != 42 {
		t.Fatalf("single-LP GVT = (%s,%v)", g, found)
	}
	if r.mgrs[0].GVT() != 42 {
		t.Error("GVT not recorded")
	}
}

func TestQuiescentRing(t *testing.T) {
	r := newRing(4)
	mins := []vtime.Time{30, 10, 20, 40}
	if _, found := r.mgrs[0].MaybeInitiate(mins[0], true); found {
		t.Fatal("multi-LP initiation cannot complete immediately")
	}
	g, found := r.pump(t, func(lp int) vtime.Time { return mins[lp] })
	if !found || g != 10 {
		t.Fatalf("GVT = (%s,%v), want 10", g, found)
	}
}

func TestInTransitMessageHoldsGVT(t *testing.T) {
	r := newRing(3)
	// LP1 sends a white message at receive time 5 that LP2 has not decoded.
	r.eps[1].Send(eventStub(5), 2, false)

	if _, found := r.mgrs[0].MaybeInitiate(100, true); found {
		t.Fatal("unexpected immediate completion")
	}
	// Pump, decoding delivered events (pump decodes, so the white message
	// is received during the first sweep and Count eventually reaches 0).
	g, found := r.pump(t, func(lp int) vtime.Time {
		if lp == 2 {
			// LP2's pending event (once delivered) is the message at 5.
			return 5
		}
		return 100
	})
	if !found {
		t.Fatal("no GVT found")
	}
	if g > 5 {
		t.Fatalf("GVT = %s overtook the in-transit message at 5", g)
	}
}

func TestRedMessageMinimumRespected(t *testing.T) {
	// The multi-round scenario MMsg exists for: a white message in transit
	// forces a second round; between its two token visits the receiving LP
	// processes the white at time 5 and sends a consequent red message at
	// 7, which is still in transit when the computation completes. The red
	// minimum must bound GVT at or below 7.
	r := newRing(2)
	r.eps[0].Send(eventStub(5), 1, false) // white, in LP1's inbox, undecoded

	if _, found := r.mgrs[0].MaybeInitiate(100, true); found {
		t.Fatal("unexpected immediate completion")
	}
	// LP1 handles its inbox in FIFO order: first the white events packet,
	// which the kernel would decode before the token. To model the white
	// being counted as in transit, handle the token FIRST (it was enqueued
	// behind, but the protocol must tolerate any interleaving of counts).
	var tok comm.Packet
	var white comm.Packet
	for i := 0; i < 2; i++ {
		p := <-r.eps[1].Recv()
		if p.Kind == comm.PktToken {
			tok = p
		} else {
			white = p
		}
	}
	if _, found := r.mgrs[1].OnToken(tok.Token, 100); found {
		t.Fatal("round 1 must not complete: the white is uncounted")
	}
	// LP1 now decodes the white, processes it at 5, and sends a red
	// consequence at 7 toward LP0 (still in transit at completion).
	if _, err := r.eps[1].DecodeEvents(white); err != nil {
		t.Fatal(err)
	}
	r.eps[1].Send(eventStub(7), 0, false) // red: sent after LP1 flipped

	// Remaining rounds: LP1's local minimum is back above the red message.
	g, found := r.pump(t, func(lp int) vtime.Time { return 100 })
	if !found {
		t.Fatal("no GVT found")
	}
	if g > 7 {
		t.Fatalf("GVT = %s overtook the in-transit red message at 7", g)
	}
}

func TestPeriodThrottling(t *testing.T) {
	r := newRingWithPeriod(2, time.Hour)
	if !r.mgrs[0].Due(false) {
		t.Fatal("a fresh initiator is not due")
	}
	if _, found := r.mgrs[0].MaybeInitiate(1, false); found {
		t.Fatal("found without a round trip")
	}
	// inProgress: no re-initiation even when forced.
	if g, found := r.mgrs[0].MaybeInitiate(1, true); found || g != 0 || r.mgrs[0].Due(true) {
		t.Fatal("re-initiated while in progress")
	}
	// Non-initiators never initiate.
	if _, found := r.mgrs[1].MaybeInitiate(1, true); found || r.mgrs[1].Due(true) {
		t.Fatal("non-initiator initiated")
	}
}

func TestForceFloor(t *testing.T) {
	r := newRingWithPeriod(2, time.Hour)
	// Fresh manager: lastStart is zero, so even the forced floor (period/8)
	// has long elapsed and a forced initiation must proceed.
	r.mgrs[0].MaybeInitiate(50, true)
	g, found := r.pump(t, func(lp int) vtime.Time { return 50 })
	if !found || g != 50 {
		t.Fatalf("GVT = (%s,%v)", g, found)
	}
	// Immediately after completing: forced initiation is floored.
	if r.mgrs[0].Due(true) || r.mgrs[0].Due(false) {
		t.Fatal("due again right after a computation")
	}
	if _, found := r.mgrs[0].MaybeInitiate(1, true); found {
		t.Fatal("forced initiation ignored the floor")
	}
	select {
	case <-r.eps[1].Recv():
		t.Fatal("token sent despite the floor")
	default:
	}
}

func newRingWithPeriod(n int, period time.Duration) *ring {
	r := &ring{n: n, net: comm.NewInProc(n)}
	r.st = make([]stats.Counters, n)
	for i := 0; i < n; i++ {
		r.eps = append(r.eps, comm.NewEndpoint(r.net, i, comm.AggConfig{}, &r.st[i]))
	}
	for i := 0; i < n; i++ {
		r.mgrs = append(r.mgrs, NewManager(i, n, r.eps[i], period, &r.st[i]))
	}
	return r
}

func TestRepeatedComputations(t *testing.T) {
	r := newRing(3)
	for epoch := 1; epoch <= 6; epoch++ {
		min := vtime.Time(epoch * 10)
		if _, found := r.mgrs[0].MaybeInitiate(min, true); found {
			t.Fatal("unexpected immediate completion")
		}
		g, found := r.pump(t, func(lp int) vtime.Time { return min })
		if !found || g != min {
			t.Fatalf("epoch %d: GVT = (%s,%v), want %s", epoch, g, found, min)
		}
		for i := 1; i < 3; i++ {
			r.mgrs[i].Apply(g)
			if r.mgrs[i].GVT() != g {
				t.Fatal("Apply failed")
			}
		}
	}
	if r.st[0].GVTCycles != 6 {
		t.Errorf("GVTCycles = %d", r.st[0].GVTCycles)
	}
}

// eventStub builds a minimal positive event with the given receive time.
func eventStub(recv vtime.Time) *event.Event {
	return &event.Event{RecvTime: recv, Receiver: 0, Sender: 1, ID: uint64(recv)}
}

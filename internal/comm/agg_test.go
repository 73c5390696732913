package comm

import (
	"testing"
	"time"

	"gowarp/internal/spin"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// TestSAAWTransferFunction drives adapt with a synthetic clock: one 10 ms
// observation span holding the given number of events, then the flush that
// closes it. The rate-targeted window is targetBatch / rate; the cost of a
// physical message bounds it at targetBatch × cost; minWindow and maxWindow
// clamp the result.
func TestSAAWTransferFunction(t *testing.T) {
	const span = 10 * time.Millisecond
	// Events per span: 100/s, 10 k/s and 100 k/s.
	const sparse, moderate, dense = 1, 100, 1000
	window := AggConfig{Policy: SAAW}.withDefaults().Window
	for _, tc := range []struct {
		name   string
		events int
		cost   time.Duration
		want   time.Duration
	}{
		{"sparse traffic on a free link leaves at once", sparse, 200 * time.Nanosecond, minWindow},
		{"sparse traffic at the paper's cost is held for what a batch saves", sparse, 30 * time.Microsecond, 120 * time.Microsecond},
		{"dense traffic at the paper's cost is rate-targeted, inside the bound", dense, 30 * time.Microsecond, 40 * time.Microsecond},
		{"a link dearer than the cap is held at the cap", sparse, 10 * time.Millisecond, maxWindow},
		{"a link just under the cap is held for what a batch saves", sparse, 200 * time.Microsecond, 800 * time.Microsecond},
		{"the bound is a ceiling, not a target", dense, 10 * time.Millisecond, 40 * time.Microsecond},
		{"nothing timed yet: rate targeting alone, capped", sparse, 0, maxWindow},
		{"nothing timed yet: rate targeting alone, under the cap", moderate, 0, 400 * time.Microsecond},
		{"nothing timed yet, dense", dense, 0, 40 * time.Microsecond},
	} {
		b := aggWindow{window: window}
		t0 := time.Unix(1000, 0)
		if b.adapt(t0, tc.cost) {
			t.Errorf("%s: the flush that opens the first span moved the window", tc.name)
		}
		b.spanCount = tc.events
		b.adapt(t0.Add(span), tc.cost)
		if b.window != tc.want {
			t.Errorf("%s: window %v, want %v", tc.name, b.window, tc.want)
		}
	}
}

// TestSAAWHoldsWindowWithinSpan pins the estimator's minimum span: flushes
// closer together than rateEstMin leave the window alone whatever they cost.
func TestSAAWHoldsWindowWithinSpan(t *testing.T) {
	cfg := AggConfig{Policy: SAAW}.withDefaults()
	b := aggWindow{window: cfg.Window}
	t0 := time.Unix(1000, 0)
	b.adapt(t0, time.Nanosecond)
	b.spanCount = 5
	if b.adapt(t0.Add(rateEstMin-1), time.Nanosecond) || b.window != cfg.Window {
		t.Errorf("window moved to %v inside the observation span", b.window)
	}
}

// TestFoldCostShrugsOffOutlier: a single preempted Send among a thousand
// cheap ones must not buy every later message a long hold, while a link that
// really became dear is followed.
func TestFoldCostShrugsOffOutlier(t *testing.T) {
	const cheap, dear = 200 * time.Nanosecond, 10 * time.Millisecond
	var est, peak time.Duration
	for i := 0; i < 1000; i++ {
		sample := cheap
		if i == 500 {
			sample = dear
		}
		est = foldCost(est, sample)
		peak = max(peak, est)
	}
	if peak >= 2*cheap {
		t.Errorf("one %v sample among 1000 of %v raised the estimate to %v", dear, cheap, peak)
	}
	if est < cheap*9/10 || est > cheap*11/10 {
		t.Errorf("estimate settled at %v, want about %v", est, cheap)
	}
	for i := 0; i < 100; i++ {
		est = foldCost(est, dear)
	}
	if est < dear/2 {
		t.Errorf("after 100 samples of %v the estimate is still %v", dear, est)
	}
	if got := foldCost(dear, cheap); got >= dear {
		t.Errorf("a cheap sample did not lower a dear estimate: %v", got)
	}
}

// spinSender is a Sender whose Send costs a fixed CPU time and delivers
// nowhere.
type spinSender time.Duration

func (s spinSender) Send(int, Packet, int) { spin.Spin(time.Duration(s)) }

// saawWindowOver sends one event per flush through a SAAW endpoint over a
// sender of the given cost for at least three observation spans and returns
// the window it settled at.
func saawWindowOver(cost time.Duration, sends int) time.Duration {
	var st stats.Counters
	e := NewSendEndpoint(spinSender(cost), 2, 0, AggConfig{Policy: SAAW}, &st)
	start := time.Now()
	for i := 0; i < sends || time.Since(start) < 3*rateEstMin; i++ {
		e.Send(ev(uint64(i), vtime.Time(i), 4), 1, false)
		e.FlushAll(FlushIdle)
		spin.Spin(20 * time.Microsecond)
	}
	return e.Window(1)
}

// TestSAAWWindowFollowsSendCost is the tentpole's contract at the endpoint:
// the same sparse traffic is held for next to nothing over a sender that
// costs nothing, and for a useful window over one that costs 200 µs a
// message. The free side runs a few hundred sends so that a first Send the
// scheduler happened to preempt has decayed out of the estimate.
func TestSAAWWindowFollowsSendCost(t *testing.T) {
	if w := saawWindowOver(0, 300); w > 10*time.Microsecond {
		t.Errorf("free sender: window %v, want <= 10µs", w)
	}
	if w := saawWindowOver(200*time.Microsecond, 30); w < 100*time.Microsecond {
		t.Errorf("200µs sender: window %v, want >= 100µs", w)
	}
}

// TestNoClockOffTheSAAWPath: NoAggregation never dates an aggregate (nothing
// is held) and neither it nor FAW times a Send.
func TestNoClockOffTheSAAWPath(t *testing.T) {
	for _, cfg := range []AggConfig{{Policy: NoAggregation}, {Policy: FAW, Window: time.Hour}} {
		var st stats.Counters
		e := NewSendEndpoint(spinSender(50*time.Microsecond), 2, 0, cfg, &st)
		for i := 0; i < 4; i++ {
			e.Send(ev(uint64(i), vtime.Time(i), 4), 1, false)
		}
		e.FlushAll(FlushIdle)
		if e.sendCost != 0 {
			t.Errorf("%v: Send was timed (%v)", cfg.Policy, e.sendCost)
		}
		if dated := e.wins != nil && !e.wins[1].first.IsZero(); dated != (cfg.Policy == FAW) {
			t.Errorf("%v: aggregate dated = %t", cfg.Policy, dated)
		}
	}
}

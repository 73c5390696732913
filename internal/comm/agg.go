package comm

import (
	"time"
)

// Policy selects the message aggregation policy.
type Policy int

const (
	// NoAggregation transmits every event as its own physical message.
	NoAggregation Policy = iota
	// FAW (Fixed Aggregation Window) holds an aggregate open until the age
	// of its first event reaches a fixed window, then sends it.
	FAW
	// SAAW (Simple Adaptive Aggregation Window) starts from the same
	// window but adapts it after every aggregate: to the time targetBatch
	// events take to arrive at the observed rate, and never past the sender
	// time that collecting them could save — targetBatch times the measured
	// cost of one physical message (see aggWindow).
	SAAW
)

// String names the policy for reports and flags.
func (p Policy) String() string {
	switch p {
	case FAW:
		return "faw"
	case SAAW:
		return "saaw"
	default:
		return "none"
	}
}

// AggConfig parameterizes the aggregation layer. The control tuple for SAAW
// is <R(age), W, Winitial, SAAW, everyAggregate>: the window W is adapted as
// each aggregate is sent.
type AggConfig struct {
	Policy Policy
	// Window is the FAW window, or SAAW's initial window.
	Window time.Duration
	// MaxEvents flushes an aggregate that has collected this many events
	// regardless of age (a capacity safety valve; 0 means 256).
	MaxEvents int
	// MaxBytes flushes on accumulated payload size (0 means 64 KiB).
	MaxBytes int
}

func (c AggConfig) withDefaults() AggConfig {
	if c.Window <= 0 {
		c.Window = 100 * time.Microsecond
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 256
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 10
	}
	return c
}

// FlushCause says why an aggregate was transmitted, for the statistics.
type FlushCause int

const (
	// FlushWindow: the aggregate's age reached the window.
	FlushWindow FlushCause = iota
	// FlushCapacity: the aggregate hit the event- or byte-count cap.
	FlushCapacity
	// FlushUrgent: an urgent message (anti-message, control traffic)
	// forced the buffer out.
	FlushUrgent
	// FlushIdle: the LP went idle or handled a GVT token; buffers are
	// flushed so GVT progress never waits on a partially filled window.
	FlushIdle
)

// SAAW's tuning, as every experiment ran it.
const (
	// minWindow and maxWindow clamp the adapted window. maxWindow is an
	// explicit cap, nothing more: a timescale well below the GVT cadence.
	// What bounds the harm a held message does its receiver is measured —
	// SAAW never holds an aggregate longer than targetBatch times what a
	// physical message costs to send (aggWindow.adapt) — so the cap binds
	// only where a message costs more than maxWindow/targetBatch, 250 µs:
	// dearer links than that would want it raised.
	minWindow = time.Microsecond
	maxWindow = time.Millisecond
	// targetBatch is the equilibrium aggregate size: the adapted window is
	// the time expected to collect this many events at the observed rate.
	targetBatch = 4
	// rateAlpha is the EWMA weight of the arrival-rate estimate.
	rateAlpha = 0.25
)

// rateEstMin is the shortest observation span a SAAW rate sample may cover;
// shorter spans are accumulated into the next sample so that a single urgent
// flush of a one-event aggregate cannot poison the estimate.
const rateEstMin = 2 * time.Millisecond

// aggBuffer is the per-destination aggregate under construction. An endpoint
// has one per LP of the run whatever its policy, so it holds what every policy
// needs and no more; a policy that holds events back keeps an aggWindow beside
// it.
type aggBuffer struct {
	payload []byte
	count   int
	color   uint8 // GVT color of the buffered events (uniform; see Endpoint)
}

// aggWindow is how long one destination's aggregate may be held and how long
// it has been: what FAW and SAAW read and NoAggregation, under which an event
// leaves within the call that brought it, never does.
type aggWindow struct {
	first time.Time // wall-clock arrival of the first buffered event

	// SAAW state, the paper's control tuple <R(age), W, Winitial, SAAW,
	// everyAggregate>. The destination's event arrival rate R is estimated
	// over observation spans of at least rateEstMin — counting every event
	// regardless of what eventually flushes it — and smoothed with an EWMA;
	// the rate-targeted window is targetBatch / R, the time expected to
	// collect targetBatch events. Dense traffic therefore narrows it (the
	// batch fills sooner) and sparse traffic widens it, without limit: on its
	// own the rule holds a lone event longest. The age side of the paper's
	// R(age) is the bound adapt puts on it: holding an aggregate open for W
	// can save the sender at most (targetBatch − 1) physical messages, so W
	// never exceeds targetBatch × the measured cost of one. Where a message
	// costs what the paper's Ethernet charged, rate targeting works inside
	// that bound and converges from any initial window; where it is nearly
	// free, the bound is under minWindow and an aggregate leaves at the next
	// Poll with whatever the scheduling round produced.
	window    time.Duration
	spanStart time.Time
	spanCount int
	rateEst   float64
	primed    bool
}

// adapt applies SAAW's transfer function when an aggregate is sent. now is
// the flush time and cost the endpoint's estimate of what a physical message
// costs its sender (0 before anything was timed: rate targeting alone). It
// reports whether the window changed.
func (b *aggWindow) adapt(now time.Time, cost time.Duration) bool {
	if b.spanStart.IsZero() {
		b.spanStart = now
		b.spanCount = 0
		return false
	}
	elapsed := now.Sub(b.spanStart)
	if elapsed < rateEstMin {
		return false // keep accumulating this observation span
	}
	r := float64(b.spanCount) / elapsed.Seconds()
	b.spanStart = now
	b.spanCount = 0
	if !b.primed {
		b.primed = true
		b.rateEst = r
	} else {
		b.rateEst += rateAlpha * (r - b.rateEst)
	}
	old := b.window
	if b.rateEst > 0 {
		b.window = time.Duration(targetBatch / b.rateEst * float64(time.Second))
	}
	if cost > 0 {
		if bound := time.Duration(targetBatch * float64(cost)); b.window > bound {
			b.window = bound
		}
	}
	b.window = min(max(b.window, minWindow), maxWindow)
	return b.window != old
}

// foldCost folds one timed Sender.Send into the estimate of what a physical
// message costs its sender. The first sample seeds the estimate and later
// ones enter at 1/8 — except a sample above 8× the estimate, which is a Send
// the scheduler preempted far more often than a link that became that slow:
// it raises the estimate by a quarter, so one outlier moves SAAW's bound by
// 25 % and a real change still gets there within a few dozen messages.
func foldCost(est, sample time.Duration) time.Duration {
	switch {
	case est <= 0:
		return sample
	case sample > 8*est:
		return est + max(est/4, 1)
	default:
		return est + (sample-est)/8
	}
}

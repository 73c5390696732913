// Package control implements the linear feedback control framework of
// Section 3 of the paper. A configuration control system is the tuple
// <O, I, S, T, P>: a sampled output O, the parameter under configuration I,
// its initial setting S, a transfer function T from O to the next setting,
// and the configuration period P. Because sampling and adjustment steal CPU
// cycles from useful simulation work, every piece here is deliberately cheap:
// ring filters, dead-zone thresholds and increment/decrement transfer
// functions rather than analytic models.
//
// The concrete controllers — the dynamic checkpoint-interval controller, the
// dynamic cancellation-strategy selector and the adaptive aggregation window
// — live next to the mechanisms they steer (internal/statesave,
// internal/cancel, internal/comm) and are assembled from these primitives.
package control

// Ticker counts control-invocation opportunities and fires every Period-th
// one, implementing the P component of the control tuple. A Period of 0 or 1
// fires on every tick.
type Ticker struct {
	period int
	count  int
}

// NewTicker returns a Ticker firing every period ticks.
func NewTicker(period int) *Ticker {
	if period < 1 {
		period = 1
	}
	return &Ticker{period: period}
}

// Period returns the configured period.
func (t *Ticker) Period() int { return t.period }

// Tick records one opportunity and reports whether the controller should run.
func (t *Ticker) Tick() bool {
	t.count++
	if t.count >= t.period {
		t.count = 0
		return true
	}
	return false
}

// Reset restarts the period count.
func (t *Ticker) Reset() { t.count = 0 }

// DeadZone is the non-linear thresholding function of Figure 3: a two-state
// output with a dead zone between a lower and an upper threshold. The output
// changes only when the input crosses into the region above Upper or below
// Lower; inside the dead zone the previous output is held, providing the
// hysteresis that damps thrashing between configurations.
type DeadZone struct {
	// Lower and Upper bound the dead zone. Setting Lower == Upper removes
	// the dead zone and yields a single-threshold function.
	Lower, Upper float64
	high         bool
}

// NewDeadZone returns a thresholding function with the given bounds and
// initial output state.
func NewDeadZone(lower, upper float64, initiallyHigh bool) *DeadZone {
	return &DeadZone{Lower: lower, Upper: upper, high: initiallyHigh}
}

// Input feeds a sample and returns the (possibly unchanged) output state:
// true once the input has exceeded Upper, until it falls below Lower.
func (d *DeadZone) Input(x float64) bool {
	switch {
	case x > d.Upper:
		d.high = true
	case x < d.Lower:
		d.high = false
	}
	return d.high
}

// High returns the current output state without feeding a sample.
func (d *DeadZone) High() bool { return d.high }

// BitWindow is a fixed-depth ring of boolean observations — the "filter
// depth" record the dynamic cancellation strategy keeps of its last n output
// message comparisons. It reports the fraction of true samples and the
// current run of consecutive false samples, the two statistics the paper's
// DC and PA heuristics consume.
type BitWindow struct {
	bits  []bool
	next  int
	n     int // number of valid samples (≤ len(bits))
	trues int
	run   int // consecutive false samples ending at the newest sample
	total int // lifetime samples, for the PS "permanently set after N" rule
}

// BitWindowOver returns a window over the caller's storage, whose length (at
// least 1) is the depth, and by value: an owner of many windows carves them
// from one allocation.
func BitWindowOver(bits []bool) BitWindow { return BitWindow{bits: bits} }

// Push records one observation.
func (w *BitWindow) Push(v bool) {
	if w.n == len(w.bits) {
		if w.bits[w.next] {
			w.trues--
		}
	} else {
		w.n++
	}
	w.bits[w.next] = v
	w.next = (w.next + 1) % len(w.bits)
	if v {
		w.trues++
		w.run = 0
	} else {
		w.run++
	}
	w.total++
}

// Ratio returns the fraction of true samples in the window, or 0 when empty.
func (w *BitWindow) Ratio() float64 {
	if w.n == 0 {
		return 0
	}
	return float64(w.trues) / float64(w.n)
}

// Len returns the number of samples currently held.
func (w *BitWindow) Len() int { return w.n }

// Depth returns the window capacity (the filter depth n).
func (w *BitWindow) Depth() int { return len(w.bits) }

// Total returns the number of samples pushed over the window's lifetime.
func (w *BitWindow) Total() int { return w.total }

// FalseRun returns the length of the current run of consecutive false
// samples (zero if the newest sample was true).
func (w *BitWindow) FalseRun() int { return w.run }

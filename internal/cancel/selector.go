// Package cancel implements Time Warp message cancellation: the output queue
// bookkeeping shared by all strategies, aggressive and lazy cancellation, and
// the on-line strategy selection of Section 5 of the paper, described by the
// control tuple <HR, I, Aggressive, A, P>. The sampled output HR is the Hit
// Ratio — the fraction of the last n (the filter depth) rollback output
// comparisons in which the object regenerated a message identical to the one
// it had sent prematurely — and the transfer function is a dead-zone
// threshold: switch to lazy when HR rises above the A2L threshold, back to
// aggressive when it falls below the L2A threshold.
package cancel

import "gowarp/internal/control"

// Strategy is a cancellation strategy. It is a byte so that a static selector,
// strategy and frozen bit, is one word beside its controller pointer.
type Strategy uint8

const (
	// Aggressive sends anti-messages immediately upon rollback.
	Aggressive Strategy = iota
	// Lazy delays anti-messages until forward re-execution shows the
	// original output was not regenerated.
	Lazy
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Lazy {
		return "lazy"
	}
	return "aggressive"
}

// Mode selects how the strategy is chosen over the run.
type Mode int

const (
	// StaticAggressive runs aggressive cancellation throughout (AC).
	StaticAggressive Mode = iota
	// StaticLazy runs lazy cancellation throughout (LC).
	StaticLazy
	// Dynamic switches per object using the Hit Ratio and the dead-zone
	// threshold (DC); with A2L == L2A it degenerates to the single
	// threshold variant (ST).
	Dynamic
)

// String names the mode for reports and flags.
func (m Mode) String() string {
	switch m {
	case StaticLazy:
		return "lazy"
	case Dynamic:
		return "dynamic"
	default:
		return "aggressive"
	}
}

// Config parameterizes a Selector. The zero value, adjusted by defaults,
// reproduces the paper's DC setting for RAID: filter depth 16, A2L 0.45,
// L2A 0.2.
type Config struct {
	Mode Mode
	// FilterDepth is n, the number of remembered output comparisons.
	FilterDepth int
	// A2LThreshold and L2AThreshold bound the dead zone. Equal values
	// eliminate the dead zone (the paper's ST variant).
	A2LThreshold, L2AThreshold float64
	// Period is the number of comparisons between control invocations.
	Period int
	// PermanentAfter, when positive, freezes the strategy after that many
	// comparisons and stops monitoring (the paper's PS variant).
	PermanentAfter int
	// PermanentAggressiveRun, when positive, freezes the strategy to
	// aggressive after that many consecutive misses and stops monitoring
	// (the paper's PA variant).
	PermanentAggressiveRun int
}

func (c Config) withDefaults() Config {
	if c.FilterDepth < 1 {
		c.FilterDepth = 16
	}
	if c.A2LThreshold == 0 {
		c.A2LThreshold = 0.45
	}
	if c.L2AThreshold == 0 {
		c.L2AThreshold = 0.2
	}
	if c.Period < 1 {
		c.Period = 4
	}
	return c
}

// Selector picks the cancellation strategy for one simulation object. The
// initial state is aggressive, as in the paper. A static selector is its
// strategy and the frozen bit, which is all a rollback reads of it. The
// controller — the comparison window, the dead zone, the period ticker and the
// PS/PA bounds — and the switch count and hook are behind ctl, nil unless the
// mode is Dynamic.
type Selector struct {
	current Strategy
	frozen  bool
	ctl     *controller
}

// controller is the part of a Selector that only the Dynamic mode has.
type controller struct {
	window control.BitWindow
	dz     control.DeadZone
	ticker control.Ticker
	// permAfter and permRun are Config.PermanentAfter and
	// Config.PermanentAggressiveRun.
	permAfter, permRun int

	switches int64
	hook     func(to Strategy, hitRatio float64)
}

// NewSelector returns a selector for the given configuration.
func NewSelector(cfg Config) *Selector {
	s := &Selector{}
	s.init(cfg.withDefaults(), nil, nil)
	return s
}

// init sets s up for cfg, defaults applied. ctl and bits are where a dynamic
// selector's controller and comparison window go (a Block's slots; nil
// allocates).
func (s *Selector) init(cfg Config, ctl *controller, bits []bool) {
	*s = Selector{frozen: cfg.Mode != Dynamic}
	if cfg.Mode == StaticLazy {
		s.current = Lazy
	}
	if cfg.Mode != Dynamic {
		return
	}
	if ctl == nil {
		ctl, bits = new(controller), make([]bool, cfg.FilterDepth)
	}
	*ctl = controller{
		window: control.BitWindowOver(bits),
		// DeadZone output "high" means lazy. Thresholds map as:
		// HR > A2L -> lazy, HR < L2A -> aggressive.
		dz:        *control.NewDeadZone(cfg.L2AThreshold, cfg.A2LThreshold, false),
		ticker:    *control.NewTicker(cfg.Period),
		permAfter: cfg.PermanentAfter,
		permRun:   cfg.PermanentAggressiveRun,
	}
	s.ctl = ctl
}

// Current returns the strategy in force.
func (s *Selector) Current() Strategy { return s.current }

// Monitoring reports whether output comparisons should still be recorded.
// A frozen dynamic selector stops monitoring, which is exactly the saving
// the paper attributes to the PS and PA variants ("the cost of doing passive
// comparison is completely avoided"). Static lazy keeps comparing because
// comparison is inherent to lazy cancellation, but its selector never
// switches.
func (s *Selector) Monitoring() bool { return !s.frozen }

// Switches counts strategy changes, for the statistics report.
func (s *Selector) Switches() int64 {
	if s.ctl == nil {
		return 0
	}
	return s.ctl.switches
}

// SetHook installs fn (nil removes it) to observe every strategy change: the
// strategy now in force and the windowed hit ratio at the decision point. A
// static selector never switches, so it keeps no hook. Set it before the run
// starts; it is called from the owning LP goroutine.
func (s *Selector) SetHook(fn func(to Strategy, hitRatio float64)) {
	if s.ctl != nil {
		s.ctl.hook = fn
	}
}

// HitRatio returns the current windowed hit ratio: 0 for a static selector,
// which records no comparisons (its window, if it has a controller part at all,
// is empty).
func (s *Selector) HitRatio() float64 {
	if s.ctl == nil {
		return 0
	}
	return s.ctl.window.Ratio()
}

// Comparisons returns the lifetime number of recorded comparisons.
func (s *Selector) Comparisons() int {
	if s.ctl == nil {
		return 0
	}
	return s.ctl.window.Total()
}

// RecordComparison feeds one output comparison outcome (true = hit) and runs
// the control process on its period. It returns the strategy now in force;
// a change takes effect at the next rollback.
func (s *Selector) RecordComparison(hit bool) Strategy {
	if !s.Monitoring() {
		return s.current
	}
	ctl := s.ctl
	ctl.window.Push(hit)

	// PA: a long run of consecutive misses pins the object to aggressive.
	if r := ctl.permRun; r > 0 && ctl.window.FalseRun() >= r {
		s.setCurrent(Aggressive)
		s.frozen = true
		return s.current
	}
	// PS: after enough evidence, pin whatever the threshold function says.
	if n := ctl.permAfter; n > 0 && ctl.window.Total() >= n {
		s.decide()
		s.frozen = true
		return s.current
	}
	if ctl.ticker.Tick() {
		s.decide()
	}
	return s.current
}

func (s *Selector) decide() {
	want := Aggressive
	if s.ctl.dz.Input(s.ctl.window.Ratio()) {
		want = Lazy
	}
	s.setCurrent(want)
}

// setCurrent switches the strategy in force, counting the change and
// notifying the hook.
func (s *Selector) setCurrent(want Strategy) {
	if want == s.current {
		return
	}
	s.current = want
	ctl := s.ctl
	ctl.switches++
	if ctl.hook != nil {
		ctl.hook(want, s.HitRatio())
	}
}

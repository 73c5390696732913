package core

import (
	"gowarp/internal/control"
	"gowarp/internal/vtime"
)

// OptimismMode selects how the optimism window is managed, mirroring the
// other facets' Mode fields.
type OptimismMode int

const (
	// OptimismStatic keeps OptimismConfig.Window (0 = unbounded optimism)
	// for the whole run.
	OptimismStatic OptimismMode = iota
	// OptimismAdaptive turns the window into the sixth on-line controlled
	// facet: a controller on LP 0 consumes the LPs' wasted work and LVT
	// roughness at GVT applications and tightens or relaxes the window
	// multiplicatively.
	OptimismAdaptive
)

// String names the mode for reports and flags.
func (m OptimismMode) String() string {
	if m == OptimismAdaptive {
		return "adaptive"
	}
	return "static"
}

// OptimismConfig parameterizes optimism control as the paper's control
// tuple: the sampled output O is the windowed wasted-work ratio
// (rolled-back / committed events since the controller's last decision, cut
// at one GVT for every LP) plus the spread of the LPs' LVTs at that GVT, the
// configured item I is the optimism window itself (the Palaniswamy &
// Wilsey bounded time window), the initial setting S is Window, the transfer
// function T is a dead-zone MIMD step (see control.MIMD) extended with an
// unbounded sentinel — relaxing past Max opens optimism fully, and waste
// while unbounded re-enters the bounded range at Max — and the period P is a
// multiple of the GVT period.
type OptimismConfig struct {
	// Mode selects the static window or the adaptive controller.
	Mode OptimismMode
	// Window is the static window, or the adaptive controller's initial
	// setting S, in virtual-time units past GVT. Zero is unbounded optimism:
	// an adaptive run then tightens only when waste or roughness appears.
	Window vtime.Time
	// Min and Max bound the adaptive window. Relaxing at Max goes
	// unbounded; tightening while unbounded re-enters at Max. Defaults:
	// Min = max(Window/8, 16), Max = max(8*Window, 16384).
	Min vtime.Time
	Max vtime.Time
	// Period is the number of GVT applications between controller firings
	// (the P component; default 4).
	Period int
	// HighWater and LowWater bound the dead zone on the windowed
	// wasted-work ratio: the controller tightens above HighWater, relaxes
	// below LowWater, and holds the window in between (defaults 0.5 and
	// 0.2).
	HighWater float64
	LowWater  float64
	// MinSample is the minimum number of events committed across all LPs
	// within the observation window before the controller acts; thinner
	// windows extend instead of deciding on noise (default 64).
	MinSample int64
}

const (
	// optStep is the window's multiplicative step per firing.
	optStep = 2
	// roughFactor arms the preemptive roughness trigger: while the window
	// is unbounded, an LVT spread wider than roughFactor*Max counts as a
	// tighten signal even before rollback waste materializes — Korniss et
	// al.'s point that surface roughness precedes the storm.
	roughFactor = 4
)

// Adaptive reports whether the adaptive optimism controller is selected.
func (c OptimismConfig) Adaptive() bool { return c.Mode == OptimismAdaptive }

// withDefaults resolves the zero values.
func (c OptimismConfig) withDefaults() OptimismConfig {
	if c.Window < 0 {
		c.Window = 0
	}
	if c.Period <= 0 {
		c.Period = 4
	}
	if c.HighWater <= 0 {
		c.HighWater = 0.5
	}
	if c.LowWater <= 0 {
		c.LowWater = 0.2
	}
	if c.LowWater > c.HighWater {
		c.LowWater = c.HighWater
	}
	if c.MinSample <= 0 {
		c.MinSample = 64
	}
	if c.Max <= 0 {
		c.Max = 8 * c.Window
		if c.Max < 16384 {
			c.Max = 16384
		}
	}
	if c.Min <= 0 {
		c.Min = c.Window / 8
		if c.Min < 16 {
			c.Min = 16
		}
	}
	// A positive initial window must be reachable: widen the clamps to
	// admit it rather than snapping the user's starting point.
	if c.Window > 0 && c.Window > c.Max {
		c.Max = c.Window
	}
	if c.Window > 0 && c.Window < c.Min {
		c.Min = c.Window
	}
	if c.Min > c.Max {
		c.Min = c.Max
	}
	return c
}

// adaptWindow is the facet's transfer function T: one MIMD step over the
// cost signal, extended with the unbounded sentinel (window 0). It is pure —
// the same (window, cost) always maps to the same next window — which is
// what makes the controller's switch sequence a deterministic function of
// its observation sequence.
func adaptWindow(cfg OptimismConfig, w vtime.Time, cost float64) vtime.Time {
	if w <= 0 {
		// Unbounded: only a tighten signal re-enters the bounded range,
		// and it lands at Max so the clamp-down stays one notch per firing.
		if cost > cfg.HighWater {
			return cfg.Max
		}
		return 0
	}
	if cost < cfg.LowWater && w >= cfg.Max {
		return 0 // relaxed past the widest bounded window: open fully
	}
	m := control.MIMD{
		Lower: cfg.LowWater, Upper: cfg.HighWater,
		Factor: optStep,
		Min:    float64(cfg.Min), Max: float64(cfg.Max),
	}
	return vtime.Time(m.Step(float64(w), cost))
}

// optController is the adaptive optimism facet's controller, owned by LP 0
// and fired when a GVT computation completes, before the broadcast that
// carries its window (mirroring the load balancer's placement).
// Each firing evaluates the waste over its progressWindow, what the LPs
// committed and rolled back since its last decision, not the whole run.
type optController struct {
	cfg  OptimismConfig
	tick *control.Ticker
	win  *progressWindow

	// roughLimit is the precomputed LVT-spread threshold for the
	// preemptive tighten while unbounded.
	roughLimit int64
}

func newOptController(cfg OptimismConfig, lps []*lpRun) *optController {
	return &optController{
		cfg:        cfg,
		tick:       control.NewTicker(cfg.Period),
		win:        newProgressWindow(lps),
		roughLimit: int64(roughFactor * float64(cfg.Max)),
	}
}

// step decides on one window given the events committed and rolled back
// over it, the current LVT spread, and the window in force. It returns the
// window to run with next, the cost that drove the decision, and whether it
// decided: a window with fewer than MinSample commits is too thin, and the
// caller extends it. Deterministic in its inputs: two controllers fed the same
// observation sequence produce the same switch sequence.
func (c *optController) step(committed, rolled, width int64, widthKnown bool, w vtime.Time) (next vtime.Time, cost float64, decided bool) {
	if committed < c.cfg.MinSample {
		return w, 0, false
	}
	cost = float64(rolled) / float64(committed)
	if w <= 0 && widthKnown && width > c.roughLimit && cost <= c.cfg.HighWater {
		// Roughness precedes waste: an unbounded run whose LVT surface has
		// spread past the rough limit is headed for a storm even if the
		// rollbacks have not landed yet. Force a tighten signal.
		cost = c.cfg.HighWater + 1
	}
	return adaptWindow(c.cfg, w, cost), cost, true
}

// runOptimism fires the adaptive optimism controller (LP 0 only, from
// finishGVT) every Period GVT computations and returns the window to put in
// force with this GVT: the one in force unless the controller moved it. The
// window reaches every LP in the GVT broadcast, whose arrival also wakes an
// LP blocked at the old horizon.
func (lp *lpRun) runOptimism() vtime.Time {
	c, w := lp.opt, lp.window
	if !c.tick.Tick() {
		return w
	}
	_, total, ok := c.win.observe(lp.loads[0].at)
	if !ok {
		return w
	}
	s, known := c.win.surface()
	width := s.width()
	next, cost, decided := c.step(total.committed, total.rolledBack, width, known, w)
	if !decided {
		return w
	}
	c.win.decide()
	if next != w {
		lp.st.OptimismAdjustments++
		lp.tr.OptSwitch(int64(w), int64(next), int64(cost*1000), width)
	}
	return next
}

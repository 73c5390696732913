package core

import (
	"sync/atomic"

	"gowarp/internal/cancel"
	"gowarp/internal/vtime"
)

// Tuner is a handle for adjusting a running simulation's configuration from
// outside — the "external adjustment of runtime parameters" interface of
// Radhakrishnan, Moore & Wilsey (IPPS'97), which the paper cites as the
// precursor to on-line (self-)configuration. Setters may be called from any
// goroutine at any time; logical processes apply pending changes at their
// next GVT application, the kernel's natural reconfiguration points.
//
// External adjustment and the on-line controllers compose: forcing a
// checkpoint interval while the dynamic controller is active re-seeds the
// controller, which then continues adapting from the forced value; forcing a
// cancellation strategy freezes the per-object selectors.
type Tuner struct {
	gen atomic.Uint64

	ckptInterval   atomic.Int64 // 0 = no override
	cancelOverride atomic.Int64 // 0 = none, 1 = aggressive, 2 = lazy
	optimismWindow atomic.Int64 // 0 = no override, -1 = force unbounded
}

// NewTuner returns a tuner with no overrides.
func NewTuner() *Tuner { return &Tuner{} }

// SetCheckpointInterval forces every object's checkpoint interval to chi
// (values below 1 are clamped to 1).
func (t *Tuner) SetCheckpointInterval(chi int) {
	if chi < 1 {
		chi = 1
	}
	t.ckptInterval.Store(int64(chi))
	t.gen.Add(1)
}

// ForceAggressive freezes every object on aggressive cancellation.
func (t *Tuner) ForceAggressive() {
	t.cancelOverride.Store(1)
	t.gen.Add(1)
}

// ForceLazy freezes every object on lazy cancellation.
func (t *Tuner) ForceLazy() {
	t.cancelOverride.Store(2)
	t.gen.Add(1)
}

// SetOptimismWindow overrides the optimism window; w <= 0 forces unbounded
// optimism.
func (t *Tuner) SetOptimismWindow(w vtime.Time) {
	if w <= 0 {
		t.optimismWindow.Store(-1)
	} else {
		t.optimismWindow.Store(int64(w))
	}
	t.gen.Add(1)
}

// applyTuner applies pending external adjustments; called from applyGVT.
func (lp *lpRun) applyTuner() {
	tn := lp.cfg.Tuner
	if tn == nil {
		return
	}
	gen := tn.gen.Load()
	if gen == lp.tunerGen {
		return
	}
	lp.tunerGen = gen

	if chi := tn.ckptInterval.Load(); chi > 0 {
		for _, o := range lp.objs {
			o.ckpt.ForceInterval(int(chi))
		}
	}
	switch tn.cancelOverride.Load() {
	case 1:
		for _, o := range lp.objs {
			o.out.Selector().Override(cancel.Aggressive)
		}
	case 2:
		for _, o := range lp.objs {
			o.out.Selector().Override(cancel.Lazy)
		}
	}
	if v := tn.optimismWindow.Load(); v != 0 && lp.id == 0 {
		// LP 0 is the window's one writer (see shared.window), so that is
		// where an override lands. The composition rule is the one of every
		// on-line controller: under the adaptive facet the forced value
		// re-seeds the slot and the controller keeps adapting from it.
		next := max(v, 0) // -1 forces unbounded
		if old := lp.k.window.Swap(next); old != next {
			lp.tr.OptSwitch(old, next, 0, 0)
		}
	}
}

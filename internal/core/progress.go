package core

import "gowarp/internal/vtime"

// progress counts what an LP has processed, committed and rolled back; a
// window's per-LP deltas and its totals are progress too.
type progress struct {
	processed, committed, rolledBack int64
}

func (p progress) plus(q progress) progress {
	return progress{p.processed + q.processed, p.committed + q.committed, p.rolledBack + q.rolledBack}
}

func (p progress) minus(q progress) progress {
	return progress{p.processed - q.processed, p.committed - q.committed, p.rolledBack - q.rolledBack}
}

// loadSample is an LP's progress record: its counters and its LVT as of its
// application of GVT at — for committed a property of the model and the GVT
// value, not of when the LP's worker ran. lpRun.loads holds the two newest.
type loadSample struct {
	at, lvt vtime.Time
	progress
}

// noRecord is an LP's record before its first GVT application.
var noRecord = loadSample{at: vtime.NegInf, lvt: vtime.NegInf}

// progressWindow is how a reader that steers or watches by what the LPs did —
// the dispatcher's LP→worker remap, the load balancer, the adaptive optimism
// controller, the roughness observer — reads their progress records: per
// hosted LP, what its record at the current cut adds to its record at the cut
// of the reader's last decision, and its LVT at the current cut. The current
// cut is the GVT before the one being applied, read off the controlling LP's
// own newest record. Every LP is cut at that GVT: counts read as of whatever
// each LP applied last differ by a whole GVT step between the LPs of a worker
// that has been running and those of one that has not, and a step that
// follows a stall is several times the mean, so uniform load would read as
// skewed by worker. Two records per LP suffice because a peer is at most one
// application ahead of the initiator.
//
// A window cannot be read while some LP has no record at the cut (its worker
// has not run it since that GVT was broadcast), and it moves on only when the
// controller decides on it, so a window too thin to decide on extends.
type progressWindow struct {
	lps             []*lpRun
	base, at, delta []progress
	lvt             []vtime.Time
}

func newProgressWindow(lps []*lpRun) *progressWindow {
	n := len(lps)
	s := make([]progress, 3*n)
	return &progressWindow{lps: lps, base: s[:n:n], at: s[n : 2*n : 2*n], delta: s[2*n:], lvt: make([]vtime.Time, n)}
}

// observe reads every LP's record at GVT cut and returns, per LP in the order
// the window was made with, what it did since the last decided cut, and the
// sum; ok is false when some LP has no record at cut. The slice is the
// window's own, valid until the next call.
func (w *progressWindow) observe(cut vtime.Time) (delta []progress, total progress, ok bool) {
	for i, lp := range w.lps {
		lp.loadMu.Lock()
		s := lp.loads[0]
		if s.at != cut {
			s = lp.loads[1]
		}
		lp.loadMu.Unlock()
		if s.at != cut {
			return nil, progress{}, false
		}
		w.at[i], w.delta[i], w.lvt[i] = s.progress, s.progress.minus(w.base[i]), s.lvt
		total = total.plus(w.delta[i])
	}
	return w.delta, total, true
}

// decide starts the next window at the cut observe last read.
func (w *progressWindow) decide() { copy(w.base, w.at) }

// recordProgress writes this LP's progress record for GVT g, the one place
// its progress is recorded for the kernel's readers.
func (lp *lpRun) recordProgress(g vtime.Time) {
	st := &lp.st
	now := loadSample{g, lp.lvt, progress{st.EventsProcessed, st.EventsCommitted, st.EventsRolledBack}}
	lp.loadMu.Lock()
	lp.loads[0], lp.loads[1] = now, lp.loads[0]
	lp.loadMu.Unlock()
}

package core

import (
	"math"
	"sync/atomic"

	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// roughness is the virtual-time roughness observer (Korniss et al.,
// cond-mat/0302050), the fourth reader of the LPs' progress records beside the
// remap, the balancer and the optimism controller. At every GVT application
// the first hosted LP samples the records at the cut the controllers read
// (sample), and Run samples the final cut once the workers have joined. A
// sample is the LVT surface of the hosted LPs and the run's wasted ratio as of
// that cut: it goes into the tracer's system ring, whose one writer this is,
// into the process-wide gauges, and into the summary Run returns. The
// rollback path counts each episode into depth, one atomic add.
type roughness struct {
	win   *progressWindow // never decides: what it reads is the run's totals
	tr    *telemetry.LPTrace
	met   *runMetrics
	fold  stats.RoughnessFold
	depth [len(stats.DepthBounds) + 1]atomic.Int64
}

// sample reads every hosted LP's record at GVT cut and records the surface;
// there is no sample while some LP has no record at cut or none had executed
// an event by then.
func (r *roughness) sample(cut vtime.Time) {
	_, total, ok := r.win.observe(cut)
	if !ok {
		return
	}
	s, ok := r.win.surface()
	if !ok {
		return
	}
	var wasted int64
	if total.committed > 0 {
		wasted = total.rolledBack * 1000 / total.committed
	}
	r.tr.Roughness(int64(cut), int64(s.min), int64(s.max), int64(s.mean), int64(s.std), s.laggard, wasted)
	r.fold.Add(s.width(), s.std)
	if m := r.met; m != nil {
		m.lvtWidth.Set(0, float64(s.width()))
		m.lvtStdDev.Set(0, s.std)
		var counts [len(stats.DepthBounds) + 1]uint64
		for i := range r.depth {
			counts[i] = uint64(r.depth[i].Load())
		}
		m.rollbackDepth.SetAll(counts[:], float64(total.rolledBack))
	}
}

// rollback counts one rollback episode that undid depth events.
func (r *roughness) rollback(depth int64) { r.depth[stats.DepthBucket(depth)].Add(1) }

// hist returns the rollback-depth histogram, or nil when nothing rolled back.
func (r *roughness) hist() []int64 {
	h := make([]int64, len(r.depth))
	var total int64
	for i := range r.depth {
		h[i] = r.depth[i].Load()
		total += h[i]
	}
	if total == 0 {
		return nil
	}
	return h
}

// lvtSurface is the spread of the LPs' local virtual times at one cut, over
// the LPs that had executed an event by then; laggard is the LP at min.
type lvtSurface struct {
	min, max  vtime.Time
	mean, std float64
	laggard   int32
}

func (s lvtSurface) width() int64 { return int64(s.max - s.min) }

// surface derives the LVT surface from the records observe last read; ok is
// false when no LP had executed an event by that cut.
func (w *progressWindow) surface() (s lvtSurface, ok bool) {
	n := 0
	var sum, sumsq float64
	for i, t := range w.lvt {
		if !t.IsFinite() {
			continue
		}
		if n == 0 || t < s.min {
			s.min, s.laggard = t, int32(w.lps[i].id)
		}
		if n == 0 || t > s.max {
			s.max = t
		}
		n++
		f := float64(t)
		sum += f
		sumsq += f * f
	}
	if n == 0 {
		return s, false
	}
	s.mean = sum / float64(n)
	s.std = math.Sqrt(max(0, sumsq/float64(n)-s.mean*s.mean)) // max: float rounding
	return s, true
}

package core

import (
	"time"

	"gowarp/internal/cancel"
	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// runMetrics holds the kernel's live metric set, registered once per run
// into the configured telemetry registry and shared by all LPs (each LP
// writes only its own labelled slots).
type runMetrics struct {
	gvt          *telemetry.Metric
	gvtLag       *telemetry.Metric
	gvtCycles    *telemetry.Metric
	processed    *telemetry.Metric
	committed    *telemetry.Metric
	rolledBack   *telemetry.Metric
	rollbacks    *telemetry.Metric
	efficiency   *telemetry.Metric
	rollbackRate *telemetry.Metric
	wastedWork   *telemetry.Metric
	hitRatio     *telemetry.Metric
	meanChi      *telemetry.Metric
	lazyObjects  *telemetry.Metric
	aggWindow    *telemetry.Metric
	physMsgs     *telemetry.Metric
	antiMsgs     *telemetry.Metric
	migrations   *telemetry.Metric
	forwarded    *telemetry.Metric
	hostedObjs   *telemetry.Metric

	checkpointBytes *telemetry.Metric
	capsuleBytes    *telemetry.Metric
	codecSwitches   *telemetry.Metric

	optWindow   *telemetry.Metric
	optSwitches *telemetry.Metric

	// The roughness observer's: the LVT surface's width and standard
	// deviation (set by its sample), each LP's LVT lag, and the rollback
	// depths.
	lvtWidth      *telemetry.Metric
	lvtStdDev     *telemetry.Metric
	lvtLag        *telemetry.Metric
	rollbackDepth *telemetry.HistMetric

	// Worker-pool metrics (pool runs only; the slot index is the worker id,
	// valid because the kernel clamps the worker count to the LP count).
	workerEvents    *telemetry.Metric
	workerBusy      *telemetry.Metric
	workerOwned     *telemetry.Metric
	workerRunnable  *telemetry.Metric
	workerAdoptions *telemetry.Metric
	workerHeld      *telemetry.Metric
	workerRemaps    *telemetry.Metric
}

func newRunMetrics(reg *telemetry.Registry, numLPs int) *runMetrics {
	reg.Bind(numLPs)
	depths := make([]float64, len(stats.DepthBounds))
	for i, b := range stats.DepthBounds {
		depths[i] = float64(b)
	}
	return &runMetrics{
		gvt:          reg.Gauge("gowarp_gvt", "Current global virtual time.", false),
		gvtLag:       reg.Gauge("gowarp_gvt_lag_seconds", "Wall-clock time between successive GVT applications on this LP.", true),
		gvtCycles:    reg.Counter("gowarp_gvt_cycles_total", "Completed GVT computations (counted on the initiator).", true),
		processed:    reg.Counter("gowarp_events_processed_total", "Events executed, including later-rolled-back and coast-forward executions.", true),
		committed:    reg.Counter("gowarp_events_committed_total", "Events whose effects became permanent.", true),
		rolledBack:   reg.Counter("gowarp_events_rolled_back_total", "Event executions undone by rollback.", true),
		rollbacks:    reg.Counter("gowarp_rollbacks_total", "Rollback episodes.", true),
		efficiency:   reg.Gauge("gowarp_efficiency", "Committed / processed events (1.0 = no wasted optimism).", true),
		rollbackRate: reg.Gauge("gowarp_rollback_rate", "Rollback episodes per processed event.", true),
		wastedWork:   reg.Gauge("gowarp_wasted_work_ratio", "Rolled-back / committed events (wasted optimistic work per unit of useful progress).", true),
		hitRatio:     reg.Gauge("gowarp_hit_ratio", "Cumulative lazy-cancellation hit ratio.", true),
		meanChi:      reg.Gauge("gowarp_mean_checkpoint_interval", "Mean checkpoint interval chi across hosted objects.", true),
		lazyObjects:  reg.Gauge("gowarp_lazy_objects", "Hosted objects currently under lazy cancellation.", true),
		aggWindow:    reg.Gauge("gowarp_aggregation_window_seconds", "Mean adaptive aggregation window across remote destinations.", true),
		physMsgs:     reg.Counter("gowarp_physical_msgs_sent_total", "Physical messages placed on the simulated wire.", true),
		antiMsgs:     reg.Counter("gowarp_anti_msgs_sent_total", "Anti-messages sent.", true),
		migrations:   reg.Counter("gowarp_migrations_total", "Object migrations installed on this LP.", true),
		forwarded:    reg.Counter("gowarp_forwarded_msgs_total", "Events forwarded after arriving at a former owner.", true),
		hostedObjs:   reg.Gauge("gowarp_hosted_objects", "Simulation objects currently hosted by this LP.", true),

		checkpointBytes: reg.Counter("gowarp_checkpoint_bytes_total", "Checkpoint bytes stored after codec encoding and compression.", true),
		capsuleBytes:    reg.Counter("gowarp_capsule_bytes_total", "Migration-capsule bytes shipped after codec encoding (sender side).", true),
		codecSwitches:   reg.Counter("gowarp_codec_switches_total", "State-codec full/delta encoding switches.", true),

		optWindow:   reg.Gauge("gowarp_optimism_window", "Optimism window currently in force (virtual-time units past GVT; 0 = unbounded).", false),
		optSwitches: reg.Counter("gowarp_optimism_switches_total", "Adaptive-optimism window adjustments.", true),

		lvtWidth:      reg.Gauge("gowarp_lvt_width", "Spread (max-min) of local virtual times across LPs at the last roughness sample.", false),
		lvtStdDev:     reg.Gauge("gowarp_lvt_stddev", "Standard deviation of local virtual times across LPs at the last roughness sample.", false),
		lvtLag:        reg.Gauge("gowarp_lvt_lag", "This LP's local virtual time minus the last applied GVT (virtual-time units).", true),
		rollbackDepth: reg.Histogram("gowarp_rollback_depth", "Events undone per rollback episode.", depths),

		workerEvents:    reg.Counter("gowarp_worker_events_total", "Events executed by this pool worker (pool runs only).", true).WithLabel("worker"),
		workerBusy:      reg.Counter("gowarp_worker_busy_seconds_total", "Wall-clock seconds this pool worker spent executing events.", true).WithLabel("worker"),
		workerOwned:     reg.Gauge("gowarp_worker_owned_lps", "LPs currently owned by this pool worker.", true).WithLabel("worker"),
		workerRunnable:  reg.Gauge("gowarp_worker_runnable_lps", "Owned LPs with an executable event at last check.", true).WithLabel("worker"),
		workerAdoptions: reg.Counter("gowarp_worker_adoptions_total", "LPs adopted by this pool worker through on-line remapping.", true).WithLabel("worker"),
		workerHeld:      reg.Counter("gowarp_worker_held_rounds_total", "Rounds in which this pool worker executed nothing because its next event lay too far ahead of the rank's other workers.", true).WithLabel("worker"),
		workerRemaps:    reg.Counter("gowarp_worker_remaps_total", "LP-to-worker remap plans published by the pool dispatcher.", false),
	}
}

// publishMetrics refreshes this LP's slots from its counters and controller
// state; called at each GVT application, the kernel's control period.
func (lp *lpRun) publishMetrics(g vtime.Time) {
	m := lp.met
	id := lp.id
	now := time.Now()
	if !lp.lastGVTWall.IsZero() {
		m.gvtLag.Set(id, now.Sub(lp.lastGVTWall).Seconds())
	}
	lp.lastGVTWall = now
	if g.IsFinite() {
		m.gvt.Set(0, float64(g))
		if lp.lvt.IsFinite() {
			m.lvtLag.Set(id, float64(lp.lvt-g))
		}
	}

	st := &lp.st
	m.gvtCycles.Set(id, float64(st.GVTCycles))
	m.processed.Set(id, float64(st.EventsProcessed))
	m.committed.Set(id, float64(st.EventsCommitted))
	m.rolledBack.Set(id, float64(st.EventsRolledBack))
	m.rollbacks.Set(id, float64(st.Rollbacks))
	m.efficiency.Set(id, st.Efficiency())
	if st.EventsProcessed > 0 {
		m.rollbackRate.Set(id, float64(st.Rollbacks)/float64(st.EventsProcessed))
	}
	m.wastedWork.Set(id, st.WastedWorkRatio())
	m.hitRatio.Set(id, st.HitRatio())
	m.physMsgs.Set(id, float64(st.PhysicalMsgsSent))
	m.antiMsgs.Set(id, float64(st.AntiMsgsSent))
	m.migrations.Set(id, float64(st.Migrations))
	m.forwarded.Set(id, float64(st.ForwardedMsgs))
	m.hostedObjs.Set(id, float64(len(lp.objs)))
	m.checkpointBytes.Set(id, float64(st.CheckpointBytes))
	m.capsuleBytes.Set(id, float64(st.CapsuleBytes))
	m.codecSwitches.Set(id, float64(st.CodecSwitches))
	m.optSwitches.Set(id, float64(st.OptimismAdjustments))

	meanChi, lazy, meanWindow := lp.controlSnapshot()
	m.meanChi.Set(id, meanChi)
	m.lazyObjects.Set(id, float64(lazy))
	m.aggWindow.Set(id, meanWindow.Seconds())

	// One LP publishes the process-wide gauges: the first hosted, with the
	// optimism window this GVT put in force, which every LP applies with the
	// GVT. The worker counters are atomics, safe to read across threads.
	if lp == lp.d.lps[0] {
		m.optWindow.Set(0, float64(lp.window))
		lp.d.publishMetrics(m)
	}
}

// controlSnapshot summarizes the LP's on-line controller state: the mean
// checkpoint interval and lazily-cancelling object count across hosted
// objects, and the mean aggregation window across remote destinations.
func (lp *lpRun) controlSnapshot() (meanChi float64, lazy int, meanWindow time.Duration) {
	for _, o := range lp.objs {
		meanChi += float64(o.ckpt.Interval())
		if o.out.Selector().Current() == cancel.Lazy {
			lazy++
		}
	}
	if len(lp.objs) > 0 {
		meanChi /= float64(len(lp.objs))
	}
	if lp.numLPs > 1 {
		var sum time.Duration
		for dst := 0; dst < lp.numLPs; dst++ {
			if dst != lp.id {
				sum += lp.ep.Window(dst)
			}
		}
		meanWindow = sum / time.Duration(lp.numLPs-1)
	}
	return meanChi, lazy, meanWindow
}

package main

// perLayer names every per-layer metric: the layer drivers' (layers.go) and
// the traced run's. The driver's result line with -trace 1 carries all of
// them for every workload; a metric that does not apply to a workload (send
// times on the pool engine, worker statistics on goroutine-per-LP) reads 0.
var perLayer = []metricDef{
	{Name: "pq.heap.hold_ns.16", Unit: "ns", Better: "lower"},
	{Name: "pq.heap.hold_ns.1024", Unit: "ns", Better: "lower"},
	{Name: "pq.heap.hold_ns.65536", Unit: "ns", Better: "lower"},
	{Name: "pq.splay.hold_ns.16", Unit: "ns", Better: "lower"},
	{Name: "pq.splay.hold_ns.1024", Unit: "ns", Better: "lower"},
	{Name: "pq.splay.hold_ns.65536", Unit: "ns", Better: "lower"},
	{Name: "pq.calendar.hold_ns.16", Unit: "ns", Better: "lower"},
	{Name: "pq.calendar.hold_ns.1024", Unit: "ns", Better: "lower"},
	{Name: "pq.calendar.hold_ns.65536", Unit: "ns", Better: "lower"},
	{Name: "pq.heap.remove_ns", Unit: "ns", Better: "lower"},
	{Name: "pq.splay.remove_ns", Unit: "ns", Better: "lower"},
	{Name: "pq.calendar.remove_ns", Unit: "ns", Better: "lower"},
	{Name: "pq.schedule.update_ns.256", Unit: "ns", Better: "lower"},
	{Name: "pq.schedule.update_ns.4096", Unit: "ns", Better: "lower"},

	{Name: "event.pool.getput_ns", Unit: "ns", Better: "lower"},
	{Name: "event.pool.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "event.pool.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "event.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "event.decode_into_ns", Unit: "ns", Better: "lower"},

	{Name: "statesave.save_ns.64b", Unit: "ns", Better: "lower"},
	{Name: "statesave.save_ns.16k", Unit: "ns", Better: "lower"},
	{Name: "statesave.save_delta_ns.16k", Unit: "ns", Better: "lower"},
	{Name: "statesave.restore_ns.16k", Unit: "ns", Better: "lower"},
	{Name: "statesave.fossil_ns_per_snap", Unit: "ns", Better: "lower"},
	{Name: "statesave.allocs_per_save", Unit: "count", Better: "lower"},
	{Name: "statesave.saves_per_kevent", Unit: "count", Better: "lower"},
	{Name: "statesave.stored_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "statesave.time_share", Unit: "fraction", Better: "lower"},
	{Name: "statesave.coast_time_share", Unit: "fraction", Better: "lower"},

	{Name: "cancel.record_sent_ns", Unit: "ns", Better: "lower"},
	{Name: "cancel.rollback_aggr_ns_per_anti", Unit: "ns", Better: "lower"},
	{Name: "cancel.lazy_filter_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cancel.fossil_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "cancel.allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "cancel.antis_per_kevent", Unit: "count", Better: "lower"},
	{Name: "cancel.lazy_hit_ratio", Unit: "fraction", Better: "higher"},

	{Name: "codec.delta_append_ns.16k", Unit: "ns", Better: "lower"},
	{Name: "codec.delta_apply_ns.16k", Unit: "ns", Better: "lower"},
	{Name: "codec.lz_compress_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "codec.lz_decompress_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "codec.delta_share", Unit: "fraction", Better: "higher"},

	{Name: "comm.frame_append_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.frame_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.inproc_send_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.endpoint_send_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.endpoint_send_saaw_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.allocs_per_send", Unit: "count", Better: "lower"},
	{Name: "comm.tcp_rtt_us.p50", Unit: "us", Better: "lower"},
	{Name: "comm.tcp_rtt_us.p99", Unit: "us", Better: "lower"},
	{Name: "comm.tcp_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "comm.send_ns.p50", Unit: "ns", Better: "lower"},
	{Name: "comm.send_ns.p99", Unit: "ns", Better: "lower"},
	{Name: "comm.physical_msgs_per_kevent", Unit: "count", Better: "lower"},
	{Name: "comm.wire_bytes_per_event", Unit: "B", Better: "lower"},

	{Name: "gvt.round_us.8", Unit: "us", Better: "lower"},
	{Name: "gvt.round_us.390", Unit: "us", Better: "lower"},
	{Name: "gvt.cycles_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gvt.time_share", Unit: "fraction", Better: "lower"},

	{Name: "core.efficiency", Unit: "fraction", Better: "higher"},
	{Name: "core.rollbacks_per_kevent", Unit: "count", Better: "lower"},
	{Name: "core.mean_rollback_len", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "core.gc_cpu_fraction", Unit: "fraction", Better: "lower"},
	{Name: "core.null_run_s", Unit: "s", Better: "lower"},
	{Name: "core.kernel_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.pool_reuse_ratio", Unit: "fraction", Better: "higher"},
	{Name: "core.worker_busy_share", Unit: "fraction", Better: "higher"},
	{Name: "core.worker_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "core.adoptions", Unit: "count", Better: "lower"},

	{Name: "apps.execute_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "apps.model_build_s", Unit: "s", Better: "lower"},

	{Name: "trace.overhead", Unit: "fraction", Better: "lower"},

	// The rates of the timed runs, whose ratios to the sequential run are the
	// bounded end-to-end metrics: here so that the driver records them too.
	{Name: "run.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "run.cpu_s_per_mevent", Unit: "s", Better: "lower"},
}

// traceFile is what trace-<workload>.json holds: the last traced run's spans
// and accumulators, the tracing overhead, and the computed layer shares.
type traceFile struct {
	Workload string  `json:"workload"`
	Overhead float64 `json:"trace.overhead"`
	*traceData
	Computed []computedShare `json:"computed_cpu_share"`
}

// computedShare is an estimate, not a measurement: a layer driver's ns/op
// times the number of such operations the workload's counters report, as a
// share of the run's CPU time. In-program spans (ROADMAP item 5) replace it.
type computedShare struct {
	Layer    string  `json:"layer"`
	CPUShare float64 `json:"cpu_share"`
	How      string  `json:"how"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medians folds one map of values per run into the median of every key.
func medians(perRun []map[string]float64, into map[string]float64) {
	for k := range perRun[0] {
		v := make([]float64, len(perRun))
		for i, m := range perRun {
			v[i] = m[k]
		}
		into[k] = median(v)
	}
}

// runMetrics reads the per-layer metrics that Result.Stats and
// Result.PerWorker already publish off one untraced run.
func runMetrics(r *childReport) map[string]float64 {
	s := &r.Stats
	committed := float64(r.Committed)
	var busy, most, events, adoptions float64
	for _, ws := range r.PerWorker {
		busy += ws.BusySeconds
		most = max(most, float64(ws.Events))
		events += float64(ws.Events)
		adoptions += float64(ws.Adoptions)
	}
	workers := float64(len(r.PerWorker))
	return map[string]float64{
		"statesave.saves_per_kevent":       1000 * ratio(float64(s.StatesSaved), committed),
		"statesave.stored_bytes_per_event": ratio(float64(s.CheckpointBytes), committed),
		"statesave.time_share":             ratio(s.StateSaveTime.Seconds(), r.CPUS),
		"statesave.coast_time_share":       ratio(s.CoastForwardTime.Seconds(), r.CPUS),
		"cancel.antis_per_kevent":          1000 * ratio(float64(s.AntiMsgsSent), committed),
		"cancel.lazy_hit_ratio":            s.HitRatio(),
		"codec.delta_share":                ratio(float64(s.DeltaCheckpoints), float64(s.StatesSaved)),
		"comm.physical_msgs_per_kevent":    1000 * ratio(float64(s.PhysicalMsgsSent), committed),
		"comm.wire_bytes_per_event":        ratio(float64(s.BytesSent), committed),
		"gvt.cycles_per_s":                 ratio(float64(s.GVTCycles), r.RunS),
		"gvt.time_share":                   ratio(s.GVTTime.Seconds(), r.RunS),
		"core.efficiency":                  s.Efficiency(),
		"core.rollbacks_per_kevent":        1000 * ratio(float64(s.Rollbacks), committed),
		"core.mean_rollback_len":           s.MeanRollbackLength(),
		"core.allocs_per_event":            ratio(float64(r.Mallocs), committed),
		"core.bytes_per_event":             ratio(float64(r.AllocBytes), committed),
		"core.gc_cpu_fraction":             ratio(r.GCCPUS, r.CPUS),
		"core.pool_reuse_ratio":            ratio(float64(s.EventPoolReuses), float64(s.EventPoolAllocs+s.EventPoolReuses)),
		"core.worker_busy_share":           ratio(busy, r.RunS*workers),
		"core.worker_imbalance":            ratio(most*workers, events),
		"core.adoptions":                   adoptions,
		"apps.model_build_s":               r.BuildS,
	}
}

// tracedMetrics derives the traced per-layer metrics of one workload, each
// the median over runs. The counters the kernel already publishes are read
// from the untraced runs, which no decorator perturbs; execute time, send
// times, spans and the overhead come from the traced runs.
func tracedMetrics(res *workloadResult, layers map[string]float64, runs, traced []*childReport) (map[string]float64, *traceFile) {
	m := map[string]float64{}
	perRun := make([]map[string]float64, len(runs))
	for i, r := range runs {
		perRun[i] = runMetrics(r)
		perRun[i]["cpu_ns_per_processed"] = ratio(r.CPUS*1e9, float64(r.Stats.EventsProcessed))
	}
	medians(perRun, m)
	perTraced := make([]map[string]float64, len(traced))
	for i, r := range traced {
		t := r.Trace
		perTraced[i] = map[string]float64{
			// The model's own time: Execute less the kernel's send path.
			"apps.execute_ns_per_event": ratio(float64(t.Execute.TotalNS-t.CtxSend.TotalNS), float64(t.Execute.Count)),
			"comm.send_ns.p50":          t.SendP50NS,
			"comm.send_ns.p99":          t.SendP99NS,
			"traced_events_per_s":       float64(r.Committed) / r.WallS,
		}
	}
	medians(perTraced, m)

	m["core.null_run_s"] = res.Metrics["setup_s"].Median
	m["run.events_per_s"] = res.Metrics["events_per_s"].Median
	m["run.cpu_s_per_mevent"] = res.Metrics["cpu_s_per_mevent"].Median
	m["core.kernel_ns_per_event"] = m["cpu_ns_per_processed"] - m["apps.execute_ns_per_event"]
	m["trace.overhead"] = 1 - ratio(m["traced_events_per_s"], res.Metrics["events_per_s"].Median)
	for _, scratch := range []string{"cpu_ns_per_processed", "traced_events_per_s"} {
		delete(m, scratch)
	}

	tf := &traceFile{Workload: res.Name, Overhead: m["trace.overhead"], traceData: traced[len(traced)-1].Trace}
	tf.Computed = computedShares(layers, m["apps.execute_ns_per_event"], runs)
	return m, tf
}

// computedShares estimates each layer's share of the CPU time of the untraced
// runs (the median over them): measured where the kernel or the decorator
// measures it, otherwise a layer driver's ns/op times the run's counter.
func computedShares(layers map[string]float64, execNS float64, runs []*childReport) []computedShare {
	rows := []struct {
		layer, how string
		ns         func(r *childReport) float64
	}{
		{"apps (measured)", "decorator time per Execute, less the Context.Send calls inside, x events processed",
			func(r *childReport) float64 { return execNS * float64(r.Stats.EventsProcessed) }},
		{"statesave (measured by kernel)", "Stats.StateSaveTime",
			func(r *childReport) float64 { return float64(r.Stats.StateSaveTime) }},
		{"coast forward (measured by kernel)", "Stats.CoastForwardTime",
			func(r *childReport) float64 { return float64(r.Stats.CoastForwardTime) }},
		{"pq", "(pq.heap.hold_ns.16 + pq.schedule.update_ns.256) x events processed",
			func(r *childReport) float64 {
				return (layers["pq.heap.hold_ns.16"] + layers["pq.schedule.update_ns.256"]) * float64(r.Stats.EventsProcessed)
			}},
		{"event", "event.pool.getput_ns x pool acquisitions",
			func(r *childReport) float64 {
				return layers["event.pool.getput_ns"] * float64(r.Stats.EventPoolAllocs+r.Stats.EventPoolReuses)
			}},
		{"cancel", "cancel.record_sent_ns x sends + cancel.rollback_aggr_ns_per_anti x anti-messages",
			func(r *childReport) float64 {
				return layers["cancel.record_sent_ns"]*float64(r.Stats.EventMsgsSent+r.Stats.IntraLPMsgs) +
					layers["cancel.rollback_aggr_ns_per_anti"]*float64(r.Stats.AntiMsgsSent)
			}},
		{"comm", "comm.endpoint_send_ns x inter-LP events",
			func(r *childReport) float64 { return layers["comm.endpoint_send_ns"] * float64(r.Stats.EventMsgsSent) }},
		{"gvt", "gvt.round_us.8 / 8 per hop x LPs x token rounds",
			func(r *childReport) float64 {
				return layers["gvt.round_us.8"] / 8 * 1e3 * float64(r.LPs) * float64(r.Stats.GVTRounds)
			}},
	}
	out := make([]computedShare, len(rows))
	for i, row := range rows {
		shares := make([]float64, len(runs))
		for j, r := range runs {
			shares[j] = ratio(row.ns(r), r.CPUS*1e9)
		}
		out[i] = computedShare{Layer: row.layer, How: row.how, CPUShare: median(shares)}
	}
	return out
}

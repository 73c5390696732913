package core

import (
	"fmt"
	"sync"
	"time"

	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/gvt"
	"gowarp/internal/model"
	"gowarp/internal/observe"
	"gowarp/internal/pq"
	"gowarp/internal/route"
	"gowarp/internal/statesave"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// Run executes m under cfg on the parallel Time Warp kernel and returns the
// merged results. It blocks until the simulation terminates (GVT passes
// cfg.EndTime, or the model drains).
func Run(m *model.Model, cfg Config) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if cfg.EndTime <= 0 {
		return nil, fmt.Errorf("core: non-positive end time %s", cfg.EndTime)
	}
	numLPs := m.NumLPs()
	cfg.Balance = cfg.Balance.withDefaults()
	cfg.Codec = cfg.Codec.WithDefaults()
	cfg.Optimism = cfg.Optimism.withDefaults(cfg.OptimismWindow)
	if cfg.Optimism.Mode == OptimismStatic && cfg.Optimism.Window > 0 {
		// The facet config is authoritative either way: in static mode it
		// simply sets the kernel window.
		cfg.OptimismWindow = cfg.Optimism.Window
	}
	if cfg.Optimism.Adaptive() && cfg.Observe == nil {
		// The controller steers by the sampler's wasted-work and LVT
		// signals; create one when the caller didn't.
		cfg.Observe = observe.NewSampler(0)
	}

	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative worker count %d", cfg.Workers)
	}
	var pn *poolNet
	var dsp *dispatcher
	if cfg.Workers > 0 {
		if cfg.Transport != nil {
			return nil, fmt.Errorf("core: the worker-pool dispatcher requires the default in-process transport (set Config.Workers or Config.Transport, not both)")
		}
		if cfg.Workers > numLPs {
			cfg.Workers = numLPs
		}
		pn = newPoolNet(numLPs, cfg.Cost)
		dsp = newDispatcher(pn, cfg.Workers, numLPs, &cfg)
	}

	tr := cfg.Transport
	if pn != nil {
		tr = pn
	}
	if tr == nil {
		tr = comm.NewInProc(numLPs, comm.WithCost(cfg.Cost), comm.WithInboxDepth(cfg.InboxDepth))
	}
	peers := tr.Peers()
	if peers.NumLPs != numLPs {
		return nil, fmt.Errorf("core: transport connects %d LPs but the model partitions onto %d", peers.NumLPs, numLPs)
	}
	if len(peers.Local) == 0 {
		return nil, fmt.Errorf("core: rank %d hosts no LPs", peers.Rank)
	}
	if peers.Distributed() {
		if err := checkDistributed(m, &cfg); err != nil {
			return nil, err
		}
	}

	sh := &shared{
		rt:   route.New(m.Partition),
		objs: make([]*simObject, len(m.Objects)),
	}
	if cfg.Balance.Dynamic() {
		sh.board = stats.NewLoadBoard(len(m.Objects), numLPs)
	}
	if cfg.Optimism.Adaptive() {
		sh.optAdaptive = true
		sh.optWin.Store(int64(cfg.Optimism.Window))
	}

	start := time.Now()
	cfg.Tracer.Bind(numLPs, start)
	cfg.Audit.Bind(numLPs, cfg.EndTime)
	var met *runMetrics
	if cfg.Metrics != nil {
		met = newRunMetrics(cfg.Metrics, numLPs)
	}
	// The sampler binds after the registry (Bind above cleared it) so its
	// series survive; it records into the tracer's system ring (nil when
	// tracing is off — the sampler is nil-safe about both).
	cfg.Observe.Bind(numLPs, cfg.Tracer.System())
	if cfg.Metrics != nil {
		cfg.Observe.BindMetrics(cfg.Metrics)
	}

	if err := tr.Start(); err != nil {
		return nil, fmt.Errorf("core: transport start: %w", err)
	}
	defer tr.Close() // idempotent; the success path closes explicitly below

	// lps stays indexed by global LP id (nil for LPs hosted by other ranks);
	// locals lists the ones this process runs.
	lps := make([]*lpRun, numLPs)
	locals := make([]*lpRun, 0, len(peers.Local))
	for _, i := range peers.Local {
		lp := &lpRun{
			id:       i,
			cfg:      &cfg,
			k:        sh,
			inbox:    tr.Recv(i),
			running:  true,
			idleTick: cfg.GVTPeriod / 4,
			numLPs:   numLPs,
			started:  start,
			tr:       cfg.Tracer.LP(i),
			met:      met,
			obs:      cfg.Observe,
			au:       cfg.Audit.LP(i),
			local:    make([]*simObject, len(m.Objects)),
			outbound: make(map[event.ObjectID]int),
		}
		if lp.idleTick <= 0 {
			lp.idleTick = 250 * time.Microsecond
		}
		if dsp != nil {
			// Pool mode: the event pool belongs to the owning worker (shared
			// by its other LPs), and packets arrive through the spillbox.
			lp.spill = &pn.boxes[i]
			lp.pool = dsp.workerOf(i).pool
			lp.dsp = dsp
		} else {
			lp.pool = event.NewPool()
		}
		if cfg.Balance.Dynamic() {
			lp.ld = newLoadRecorder(len(m.Objects))
			if i == 0 {
				lp.bal = newBalancer(cfg.Balance)
			}
		}
		if cfg.Optimism.Adaptive() && i == 0 {
			lp.opt = newOptController(cfg.Optimism)
		}
		lp.ep = comm.NewEndpoint(tr, i, cfg.Aggregation, &lp.st)
		lp.ep.Pool = lp.pool
		if cfg.Codec.CompressWire() {
			lp.ep.Compress = codec.Compress
			lp.ep.Decompress = codec.Decompress
		}
		lp.gvtMgr = gvt.NewManager(i, numLPs, lp.ep, cfg.GVTPeriod, &lp.st)
		if tr := lp.tr; tr != nil {
			lp.ep.TraceFlush = func(dst int, cause comm.FlushCause, events, bytes int) {
				tr.Flush(int32(dst), int64(cause), int64(events), int64(bytes))
			}
			lp.ep.TraceWindow = func(dst int, oldW, newW time.Duration) {
				tr.WindowAdjust(int32(dst), oldW, newW)
			}
			lp.gvtMgr.OnCycle = func(g vtime.Time, rounds int64, took time.Duration) {
				tr.GVTCycle(int64(g), rounds, took)
			}
		}
		if au := lp.au; au != nil {
			lp.gvtMgr.Audit = au.GVTRound
		}
		lps[i] = lp
		locals = append(locals, lp)
	}

	for id, obj := range m.Objects {
		lp := lps[m.Partition[id]]
		if lp == nil {
			continue // hosted by another rank; sh.objs keeps a nil slot
		}
		o := &simObject{
			id:      event.ObjectID(id),
			slot:    len(lp.objs),
			obj:     obj,
			lp:      lp,
			pending: pq.New(cfg.PendingSet),
		}
		o.au = lp.au.Object(o.id)
		o.ectx.o = o
		o.ckpt = statesave.NewCheckpointer(cfg.Checkpoint)
		sel := cancel.NewSelector(cfg.Cancellation)
		o.out = cancel.NewManager(sel, lp.emitAnti, &lp.st, lp.pool)
		bindObjectHooks(lp, o)
		sh.objs[id] = o
		lp.objs = append(lp.objs, o)
		lp.local[id] = o
	}
	for _, lp := range locals {
		lp.sched = pq.NewScheduleHeap(len(lp.objs))
	}
	if dsp != nil {
		dsp.attach(locals)
	}
	// Start the sampling goroutine for the LPs' lifetime; the deferred Stop
	// takes a final sample before the caller reads the aggregates, so even
	// runs shorter than the period get a timeline entry.
	cfg.Observe.Start()
	defer cfg.Observe.Stop()

	var wg sync.WaitGroup
	panics := make([]interface{}, numLPs)
	if dsp != nil {
		// Worker-pool mode: one goroutine per worker, each driving its owned
		// LPs through the shared pump/execStep machinery.
		for _, w := range dsp.workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panics[w.id] = r
						// Unblock peer workers so the run can fail cleanly.
						if len(w.owned) > 0 {
							w.owned[0].ep.BroadcastStop()
						}
					}
				}()
				w.run()
			}(w)
		}
	} else {
		for _, lp := range locals {
			wg.Add(1)
			go func(lp *lpRun) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panics[lp.id] = r
						// Unblock peers so the run can fail cleanly.
						lp.ep.BroadcastStop()
					}
				}()
				lp.run()
			}(lp)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	for i, p := range panics {
		if p != nil {
			if dsp != nil {
				return nil, fmt.Errorf("core: worker %d failed: %v", i, p)
			}
			return nil, fmt.Errorf("core: LP %d failed: %v", i, p)
		}
	}

	// Drain undelivered packets once, for everyone: the auditor closes its
	// conservation ledger over them, and any capsule still in flight at
	// termination (possible only when its virtual-time floor lies beyond the
	// end time) is adopted by its destination so the object's final state and
	// counters are reported exactly once.
	leftovers := drainInboxes(lps)
	for i, pkts := range leftovers {
		for _, p := range pkts {
			if p.Kind != comm.PktMigrate {
				continue
			}
			c := p.Capsule.(*capsule)
			lp := lps[i] // capsules exist only in-process, so lps[i] is local
			for j := range c.items {
				o := c.items[j].o
				if enc := c.items[j].stateEnc; enc != nil {
					// Decode the shipped state so the final report sees the
					// object's real state, not a stale image.
					raw, err := codec.Unpack(enc, c.items[j].comp)
					if err != nil {
						return nil, fmt.Errorf("core: leftover capsule decode: %w", err)
					}
					st, err := o.state.(codec.DeltaState).UnmarshalState(raw)
					if err != nil {
						return nil, fmt.Errorf("core: leftover capsule state decode: %w", err)
					}
					o.state = st
				}
				o.lp = lp
				o.slot = len(lp.objs)
				lp.objs = append(lp.objs, o)
				lp.local[o.id] = o
			}
		}
	}
	if cfg.Audit != nil {
		finishAudit(cfg.Audit, lps, leftovers)
	}

	finalWindow := cfg.OptimismWindow
	if tn := cfg.Tuner; tn != nil {
		if ov, ok := tn.windowOverride(); ok {
			finalWindow = ov
		}
	}
	if sh.optAdaptive {
		finalWindow = vtime.Time(sh.optWin.Load())
	}
	res := &Result{
		PerLP:               make([]stats.Counters, numLPs),
		PerObject:           make([]stats.PerObject, len(sh.objs)),
		GVT:                 locals[0].gvtMgr.GVT(),
		Elapsed:             elapsed,
		FinalStates:         make([]model.State, len(sh.objs)),
		FinalPartition:      sh.rt.Assignment(),
		FinalOptimismWindow: finalWindow,
	}
	for _, o := range sh.objs {
		if o == nil {
			continue // hosted by another rank
		}
		o.commitRemaining()
	}
	for _, lp := range locals {
		for _, o := range lp.objs {
			lp.st.CheckpointAdjustments += o.ckpt.Adjustments
		}
		if dsp == nil {
			lp.st.EventPoolAllocs, lp.st.EventPoolReuses = lp.pool.Stats()
		}
		res.PerLP[lp.id] = lp.st
		res.Stats.Merge(&lp.st)
	}
	if dsp != nil {
		// Pools are per-worker in pool mode: credit each exactly once into
		// the merged tally (the per-LP counters stay zero) and report the
		// per-worker scheduling statistics.
		res.PerWorker, res.FinalWorkerAssignment = dsp.finalStats()
		for _, w := range res.PerWorker {
			res.Stats.EventPoolAllocs += w.EventPoolAllocs
			res.Stats.EventPoolReuses += w.EventPoolReuses
		}
	}
	if cfg.Timeline {
		for _, lp := range locals {
			res.Timeline = append(res.Timeline, LPTimeline{LP: lp.id, Samples: lp.timeline})
		}
	}
	for _, o := range sh.objs {
		if o == nil {
			continue
		}
		res.FinalStates[o.id] = o.state
		res.PerObject[o.id] = stats.PerObject{
			Name:               o.obj.Name(),
			Rollbacks:          o.rollbacks,
			HitRatio:           o.out.Selector().HitRatio(),
			FinalStrategy:      o.out.Selector().Current().String(),
			FinalCheckpointInt: o.ckpt.Interval(),
		}
	}

	// On a distributed run, every rank ships its slice of the results to
	// rank 0, whose Result then covers the whole model — identical to what a
	// single-process run with the same seed produces. Other ranks return a
	// partial Result (their local LPs and objects only).
	if peers.Distributed() {
		if peers.Rank == 0 {
			if err := gatherReports(tr, m, res, leftovers[0], lps[0].reports); err != nil {
				return nil, err
			}
		} else if err := sendReport(tr, peers.Rank, locals, res); err != nil {
			return nil, err
		}
	}
	if cerr := tr.Close(); cerr != nil {
		return nil, fmt.Errorf("core: transport: %w", cerr)
	}
	return res, nil
}

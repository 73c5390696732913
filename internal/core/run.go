package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/control"
	"gowarp/internal/event"
	"gowarp/internal/gvt"
	"gowarp/internal/model"
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
	cfg.Optimism = cfg.Optimism.withDefaults()

	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative worker count %d", cfg.Workers)
	}
	tr := cfg.Transport
	if tr == nil {
		tr = comm.NewInProc(numLPs, comm.WithCost(cfg.Cost))
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
	start := time.Now()
	cfg.Tracer.Bind(peers.Local, start)
	cfg.Audit.Bind(numLPs, cfg.EndTime)
	var met *runMetrics
	if cfg.Metrics != nil {
		met = newRunMetrics(cfg.Metrics, numLPs)
	}

	d := newKernel(m, &cfg, peers, tr, met)
	sh, locals := d.lps[0].k, d.lps
	if err := tr.Start(); err != nil {
		return nil, fmt.Errorf("core: transport start: %w", err)
	}
	defer tr.Close() // idempotent; the success path closes explicitly below

	var wg sync.WaitGroup
	for _, w := range d.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					d.fail(w.failure(peers.Rank, r, debug.Stack()))
				}
			}()
			w.run()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if f := d.failed.Load(); f != nil {
		return nil, d.abort(f)
	}
	// The last sample is of the final GVT, which every hosted LP has applied.
	d.rough.sample(locals[0].loads[0].at)

	// With the workers joined, what the spillboxes still hold is
	// everything undelivered: the auditor closes its conservation ledger over
	// it, and any capsule still in flight at termination (possible only when
	// its virtual-time floor lies beyond the end time) is adopted by its
	// destination so the object's final state and counters are reported
	// exactly once.
	for _, lp := range locals {
		for _, p := range lp.spill.q {
			if p.Kind != comm.PktMigrate {
				continue
			}
			c := p.Capsule.(*capsule)
			for _, it := range c.items {
				if err := it.decode(); err != nil { // the report sees the real state
					return nil, fmt.Errorf("core: leftover capsule decode: %w", err)
				}
				it.o.lp, it.o.slot = lp, int32(len(lp.objs))
				lp.objs = append(lp.objs, it.o)
			}
		}
	}
	if cfg.Audit != nil {
		finishAudit(cfg.Audit, locals)
	}

	res := &Result{
		RunRecord: stats.RunRecord{
			Model:               m.Name,
			Rank:                peers.Rank,
			Ranks:               peers.NumRanks,
			HostRanks:           peers.HostRanks,
			PerLP:               make([]stats.Counters, numLPs),
			PerObject:           make([]stats.PerObject, len(sh.objs)),
			GVT:                 locals[0].gvtMgr.GVT(),
			Elapsed:             elapsed,
			FinalPartition:      sh.rt.Assignment(),
			FinalOptimismWindow: locals[0].window,
			TraceDropped:        cfg.Tracer.Dropped(),
			Roughness:           d.rough.fold.Summary(),
			RollbackDepthHist:   d.rough.hist(),
		},
		FinalStates: make([]model.State, len(sh.objs)),
	}
	for _, o := range sh.objs {
		if o == nil {
			continue // hosted by another rank
		}
		o.commitRemaining()
	}
	for _, lp := range locals {
		for _, o := range lp.objs {
			lp.st.CheckpointAdjustments += o.ckpt.Adjustments()
		}
		res.PerLP[lp.id] = lp.st
		res.Stats.Merge(&lp.st)
	}
	// Event pools belong to workers: credit each exactly once into the merged
	// tally (the per-LP counters stay zero).
	res.PerWorker, res.FinalWorkerAssignment = d.finalStats()
	for _, w := range res.PerWorker {
		res.Stats.EventPoolAllocs += w.EventPoolAllocs
		res.Stats.EventPoolReuses += w.EventPoolReuses
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
			Comparisons:        int64(o.out.Selector().Comparisons()),
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
			if err := gatherReports(d, m, res); err != nil {
				return nil, d.abort(err)
			}
		} else if err := sendReport(tr, peers.Rank, locals, res); err != nil {
			return nil, d.abort(err)
		}
	}
	if cerr := tr.Close(); cerr != nil {
		return nil, fmt.Errorf("core: transport: %w", cerr)
	}
	// A stop that came after the end: rank 0 refused a report, or found one
	// missing.
	if f := d.failed.Load(); f != nil {
		return nil, f
	}
	if lt, ok := tr.(linkTally); ok {
		res.Wire = lt.Links()
	}
	return res, nil
}

// failure is how a run fails: the rank where it failed and what happened
// there. stop marks one that arrived as a stop, from another rank or from
// this rank's transport when a link failed; the others — a panic, a refused
// report — the kernel found itself.
type failure struct {
	rank int
	msg  string
	stop bool
}

func (f *failure) Error() string { return fmt.Sprintf("core: rank %d failed: %s", f.rank, f.msg) }

// failure names what a panic r recovered on w was doing: the owned object
// whose event was executing — execApp leaves cur set when Execute panics, so
// the event path stores nothing for this — or, before the worker's first
// event, the one whose Init ran and whose state queue is still empty; then its
// LP's GVT, and stack.
func (w *worker) failure(rank int, r any, stack []byte) *failure {
	for _, lp := range w.owned {
		for _, o := range lp.objs {
			var in string
			switch {
			case o.cur != nil:
				in = fmt.Sprintf("event kind %d at t=%s", o.cur.Kind, o.cur.RecvTime)
			case o.stateQ.Len() == 0:
				in = "Init"
			default:
				continue
			}
			return &failure{rank: rank, msg: fmt.Sprintf("LP %d, object %d (%s), %s, GVT %s: panic: %v\n%s",
				lp.id, o.id, o.obj.Name(), in, lp.gvtMgr.GVT(), r, stack)}
		}
	}
	return &failure{rank: rank, msg: fmt.Sprintf("worker %d: panic: %v\n%s", w.id, r, stack)}
}

// linkTally is what a socket transport (comm.TCP) says of its links.
type linkTally interface{ Links() []stats.LinkStats }

// newKernel wires one process's share of a run: the dispatcher, the LPs
// peers.Local lists with their endpoints and GVT managers, the objects the
// partition places on them, and the cross-LP tables. It starts nothing.
// Endpoints send through tr, the run's transport, which delivers into the
// spillboxes through the sink installed here; Run starts it before any LP
// runs. Zero cfg.Workers means defaultWorkers; more than one per hosted LP
// would only idle.
func newKernel(m *model.Model, cfg *Config, peers comm.Peers, tr comm.Transport, met *runMetrics) *dispatcher {
	numLPs, hosted := m.NumLPs(), peers.Local
	workers := min(cfg.Workers, len(hosted))
	if workers == 0 {
		workers = defaultWorkers(len(hosted), peers.HostRanks)
	}
	d := newDispatcher(workers, numLPs, cfg)
	d.tr = tr
	tr.SetSink(d.deliver, d.ring)
	tcp, ok := tr.(*comm.TCP)
	d.yield = yieldsBetweenRounds(workers, runtime.GOMAXPROCS(0), ok && tcp.Readers())
	sh := &shared{
		rt:   route.New(m.Partition),
		objs: make([]*simObject, len(m.Objects)),
	}
	if cfg.Balance.Dynamic() {
		sh.board = &stats.LoadBoard{}
	}

	for h, i := range hosted {
		lp := &lpRun{
			id:       i,
			cfg:      cfg,
			k:        sh,
			running:  true,
			numLPs:   numLPs,
			tr:       cfg.Tracer.LP(i),
			met:      met,
			au:       cfg.Audit.LP(i),
			outbound: make(map[event.ObjectID]int),
			lvt:      vtime.NegInf,
			loads:    [2]loadSample{noRecord, noRecord},
			window:   cfg.Optimism.Window,
			horizon:  horizonAt(vtime.NegInf, cfg.Optimism.Window),
		}
		lp.host = cancel.Host{Emit: lp.emitAnti, Stats: &lp.st}
		lp.codecSwitched = func(bool, float64) { lp.st.CodecSwitches++ }
		if cfg.Balance.Dynamic() {
			lp.edges = make(map[uint64]int64)
		}
		lp.ep = comm.NewSendEndpoint(tr, numLPs, i, cfg.Aggregation, &lp.st)
		d.attach(lp, h, len(hosted))
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
	}
	// The controllers' windows read every hosted LP; LP 0 runs the balancer
	// and the optimism controller, the first hosted LP the remap.
	if lp0 := d.byID[0]; lp0 != nil {
		if cfg.Balance.Dynamic() {
			lp0.bal = newBalancer(cfg.Balance, d.lps, len(m.Objects))
		}
		if cfg.Optimism.Adaptive() {
			lp0.opt = newOptController(cfg.Optimism, d.lps)
		}
	}
	if len(d.workers) < len(d.lps) {
		d.tick, d.win = control.NewTicker(remapEvery), newProgressWindow(d.lps)
	}
	d.rough.win, d.rough.tr, d.rough.met = newProgressWindow(d.lps), cfg.Tracer.System(), met

	// One block per LP: an object's runtime, the slot each of its three queues
	// starts on (firstInput events, one record, one snapshot: what an object
	// that never executes holds; a queue that needs more moves to an array of
	// its own) and whatever controller state its configuration runs are slots
	// of allocations its LP makes once for all the objects it starts with, so
	// that set-up costs a handful of allocations per LP and an idle object no
	// size-class rounding. The blocks stay where they are made: a migrating
	// object moves as a pointer (sh.objs and lp.objs hold pointers) and keeps
	// the queues carved here until it outgrows them, on whichever LP that
	// happens (phold-mig, smmp-mig and TestWorkerPoolSkewedRemap run this).
	hostedObjs := make([]int, numLPs)
	for _, p := range m.Partition {
		hostedObjs[p]++
	}
	type block struct {
		objs []simObject
		in   []*event.Event
		ss   *statesave.Block
		cn   *cancel.Block
	}
	blocks := make([]block, numLPs)
	for _, lp := range d.lps {
		n := hostedObjs[lp.id]
		blocks[lp.id] = block{
			objs: make([]simObject, n),
			in:   make([]*event.Event, n*firstInput),
			ss:   statesave.NewBlock(cfg.Checkpoint, cfg.Codec, n),
			cn:   cancel.NewBlock(cfg.Cancellation, n),
		}
		// The hosted list, and the two lists that every object enters at
		// start-up — the history list when Init has sent, the deferred list with
		// what it sent — at the size they reach, not doubled up to it.
		ptrs := make([]*simObject, 2*n)
		lp.objs, lp.hist = ptrs[:0:n], ptrs[n:n]
		lp.deferred = make([]*event.Event, 0, n)
	}
	for id, obj := range m.Objects {
		lp := d.byID[m.Partition[id]]
		if lp == nil {
			continue // hosted by another rank; sh.objs keeps a nil slot
		}
		b, k := &blocks[lp.id], len(lp.objs)
		o := &b.objs[k]
		*o = simObject{
			id:   event.ObjectID(id),
			slot: int32(k),
			obj:  obj,
			lp:   lp,
			in:   b.in[k*firstInput : k*firstInput : (k+1)*firstInput],
		}
		o.au = lp.au.Object(o.id)
		b.ss.Bind(k, &o.stateQ, &o.ckpt)
		b.cn.Bind(k, &o.sel, &o.out, &lp.host)
		bindObjectHooks(lp, o)
		sh.objs[id] = o
		lp.objs = append(lp.objs, o)
	}
	for _, w := range d.workers {
		w.rebuild()
	}
	return d
}

package core

import (
	"runtime"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/apps/smmp"
	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/event"
	"gowarp/internal/statesave"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// newAllocHarness builds a single lpRun hosting two ping-ponging objects,
// wired exactly like Run does but driven synchronously (no goroutines, no
// network) so the steady-state execute path can be measured in isolation.
func newAllocHarness() *lpRun {
	cfg := DefaultConfig(vtime.Time(1) << 40)
	return newTestKernel(ringModel(2, 2, 1), &cfg)[0]
}

// TestExecuteLoopZeroAlloc pins the tentpole contract end to end: with every
// optional facet disabled (the DefaultConfig baseline — periodic
// checkpointing, static aggressive cancellation, no aggregation, no codec,
// no audit/trace/balance), the steady-state execute loop — scheduler pop,
// event execution, intra-LP routing through the cancellation manager and
// event pool, deferred delivery, periodic checkpoints, and fossil collection
// at GVT — performs zero heap allocations per event, and draws one event from
// the pool per message: the struct context.Send fills is the one the sender's
// record keeps, the receiver's input queue holds and the records it generates
// are stamped with, until fossil collection releases the last of them.
func TestExecuteLoopZeroAlloc(t *testing.T) {
	lp := newAllocHarness()
	step := func() {
		lp.drainDeferred()
		o, tm := lp.next()
		if tm == vtime.PosInf {
			panic("alloc harness drained")
		}
		o.executeNext()
		lp.refresh(o)
	}
	// One measured round: a burst of executions, then a GVT application so
	// every history structure (processed queues, output records, snapshots,
	// the pool free list) cycles at its steady capacity.
	round := func() {
		for i := 0; i < 64; i++ {
			step()
		}
		lp.applyGVT(lp.localMin(), lp.window, nil)
	}
	for i := 0; i < 16; i++ {
		round() // warm every slice, map and pool to steady capacity
	}
	if n := testing.AllocsPerRun(64, round); n != 0 {
		t.Errorf("steady-state execute loop allocated %.2f times per 64-event round, want 0", n)
	}
	allocs, reuses := lp.pool.Stats()
	events, sends := lp.st.EventsProcessed, lp.st.IntraLPMsgs
	round()
	a, r := lp.pool.Stats()
	events, sends = lp.st.EventsProcessed-events, lp.st.IntraLPMsgs-sends
	if gets := a + r - allocs - reuses; gets != sends || sends != events || a != allocs {
		t.Errorf("%d events sent %d intra-LP messages for %d pool Gets, %d of them fresh; want one recycled struct per message",
			events, sends, gets, a-allocs)
	}
}

// TestExecuteLoopZeroAllocObserved re-measures the same steady-state loop
// with the observation layer attached — a bound trace ring and a metrics
// registry, what twsim -trace -metrics-addr wires up — and a histogram add
// per round. The observation cost on the LP side (the LVT store per event, the
// progress record and the roughness sample at GVT, the depth histogram's add)
// must stay allocation-free too: observation never buys insight with hot-path
// garbage.
func TestExecuteLoopZeroAllocObserved(t *testing.T) {
	lp := newAllocHarness()
	tr := telemetry.NewTracer(1 << 10)
	tr.Bind([]int{0}, time.Now())
	lp.tr = tr.LP(0)
	lp.met = newRunMetrics(telemetry.NewRegistry(), 1)
	lp.d.rough.tr, lp.d.rough.met = tr.System(), lp.met
	round := func() {
		for i := 0; i < 64; i++ {
			lp.drainDeferred()
			if !lp.execStep() {
				panic("alloc harness drained")
			}
		}
		lp.d.rough.rollback(3) // the rollback path's histogram add
		lp.applyGVT(lp.localMin(), lp.window, nil)
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if n := testing.AllocsPerRun(64, round); n != 0 {
		t.Errorf("observed execute loop allocated %.2f times per 64-event round, want 0", n)
	}
	if s := lp.d.rough.fold.Summary(); s == nil || s.Samples < 64 || tr.System().Len() == 0 {
		t.Fatalf("roughness summary %+v, %d system-ring records: the GVT applications took no samples", s, tr.System().Len())
	}
}

// TestInputQueueZeroAlloc measures the deliver/execute pair on the input queue
// itself, one object with a standing backlog of a few events: arrivals that
// land at the tail and inside the unprocessed part, an execution for each, and
// once a round a straggler (rollback, coast forward, re-execution), an event
// annihilated while unprocessed and a fossil collection. In steady state none
// of it may allocate: an insert is a copy within capacity, a requeue a cursor
// move.
func TestInputQueueZeroAlloc(t *testing.T) {
	lp, o := newSinkKernel(&sinkObject{}, 4)
	var id uint64
	send := func(at vtime.Time, sign event.Sign) {
		e := lp.pool.Get()
		e.RecvTime, e.SendTime, e.Sender, e.Receiver, e.ID, e.Sign = at, at-1, 1, o.id, id, sign
		o.deliver(e)
	}
	now := vtime.Time(0)
	round := func() {
		for i := 0; i < 64; i++ {
			id++
			now += 2
			send(now+8-vtime.Time(i%3)*3, event.Positive)
			if len(o.in)-o.next > 4 {
				o.executeNext()
				lp.refresh(o)
			}
		}
		rollbacks := o.rollbacks
		id++
		send(o.lvt-2, event.Positive)
		if o.rollbacks == rollbacks {
			panic("the straggler rolled nothing back")
		}
		id++
		send(now+4, event.Positive)
		send(now+4, event.Negative)
		for len(o.in)-o.next > 4 {
			o.executeNext()
			lp.refresh(o)
		}
		o.fossilCollect(o.nextTime())
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if n := testing.AllocsPerRun(64, round); n != 0 {
		t.Errorf("steady-state input queue allocated %.2f times per round, want 0", n)
	}
	if lp.st.EventsRolledBack == 0 || o.processedBase == 0 || len(o.orphans) != 0 {
		t.Fatalf("%d events rolled back, %d collected, %d orphans: the round did not do what it measures",
			lp.st.EventsRolledBack, o.processedBase, len(o.orphans))
	}
}

// TestCodecRollbackZeroAlloc is the rollback of the encoded-checkpoint path
// on the state the claims benchmark checkpoints: one SMMP processor and its
// memory bank with 16 KiB states under the delta codec, once a round a
// straggler that takes the bank back over half of what it has executed since
// the last GVT (and cancels the fills it sent from there on, so the cache and
// the CPU roll back behind it) and a fossil collection. The restore walks the
// newest image back through the popped deltas and decodes it into the live
// state, and the collection re-encodes nothing, so in steady state nothing is
// allocated.
func TestCodecRollbackZeroAlloc(t *testing.T) {
	cfg := DefaultConfig(vtime.Time(1) << 40)
	cfg.Checkpoint = statesave.Config{Mode: statesave.Periodic, Interval: 2}
	cfg.Codec = codec.Config{Mode: codec.Delta}
	lp := newTestKernel(smmp.New(smmp.Config{Processors: 1, LPs: 1, HitRatio: 0.5, StatePadding: 16 << 10}), &cfg)[0]
	bank := lp.objs[3] // after the processor's cpu, cache and port
	if bank.stateQ.Codec() == nil {
		t.Fatal("codec path not engaged")
	}
	// A memory request the port never sent, for the cache (object 1).
	req := make([]byte, 20)
	req[8] = 1
	var id uint64
	round := func() {
		floor := lp.localMin()
		for i := 0; i < 64; i++ {
			lp.drainDeferred()
			o, _ := lp.next()
			o.executeNext()
			lp.refresh(o)
		}
		rollbacks := bank.rollbacks
		e := lp.pool.Get()
		e.RecvTime, e.SendTime, e.Sender, e.Receiver = floor+(bank.lvt-floor)/2, floor, 2, bank.id
		e.ID, e.Kind = 1<<32+id, smmp.KindMemRequest
		lp.pool.SetPayload(e, req)
		id++
		bank.deliver(e)
		if bank.rollbacks == rollbacks {
			panic("the straggler rolled nothing back")
		}
		lp.refresh(bank)
		lp.applyGVT(lp.localMin(), lp.window, nil)
	}
	for i := 0; i < 32; i++ {
		round() // until every buffer is warm
	}
	before := lp.st
	if n := testing.AllocsPerRun(64, round); n != 0 {
		t.Errorf("codec-path rollback round allocated %.2f times, want 0", n)
	}
	rolled, saved := lp.st.EventsRolledBack-before.EventsRolledBack, lp.st.DeltaCheckpoints-before.DeltaCheckpoints
	if rolled < 65*int64(cfg.Checkpoint.Interval) || saved == 0 {
		t.Fatalf("%d events rolled back, %d delta checkpoints in the measured rounds: the round did not do what it measures",
			rolled, saved)
	}
}

// TestExecuteLoopZeroAllocAdaptiveOptimism re-measures the steady-state loop
// with the adaptive optimism controller armed on top of the observation
// layer, firing at every GVT computation. Injected waste on alternate rounds
// forces the window to move every round — the store-trace-account path, not
// just the hold path — and none of it may allocate: the sixth facet rides
// the same zero-garbage contract as the rest of the hot path.
func TestExecuteLoopZeroAllocAdaptiveOptimism(t *testing.T) {
	lp := newAllocHarness()
	tr := telemetry.NewTracer(1 << 10)
	tr.Bind([]int{0}, time.Now())
	lp.tr = tr.LP(0)
	lp.d.rough.tr = tr.System()
	optCfg := OptimismConfig{
		Mode: OptimismAdaptive, Window: 100, Min: 50, Max: 100,
		Period: 1, HighWater: 0.3, LowWater: 0.1, MinSample: 1,
	}.withDefaults()
	lp.window = optCfg.Window
	lp.opt = newOptController(optCfg, lp.d.lps)

	step := func() {
		lp.drainDeferred()
		o, tm := lp.next()
		if tm == vtime.PosInf {
			panic("alloc harness drained")
		}
		o.executeNext()
		lp.lvt = o.lvt
		lp.refresh(o)
	}
	rounds := 0
	round := func() {
		for i := 0; i < 64; i++ {
			step()
		}
		if rounds%2 == 0 {
			lp.st.EventsRolledBack += 48 // synthetic waste: forces a tighten
		}
		rounds++
		lp.finishGVT(lp.localMin()) // LP 0's decision, then its application
	}
	for i := 0; i < 16; i++ {
		round()
	}
	before := lp.st.OptimismAdjustments
	if n := testing.AllocsPerRun(64, round); n != 0 {
		t.Errorf("adaptive-optimism execute loop allocated %.2f times per 64-event round, want 0", n)
	}
	if lp.st.OptimismAdjustments == before {
		t.Fatal("controller never moved the window; measurement is vacuous")
	}
}

// TestExecutePathAllocationBudget is the facets-enabled companion: with
// dynamic cancellation, dynamic checkpointing and the delta+lz state codec
// all on, the marginal allocation cost per committed event (long run minus
// short run, so setup is excluded) must stay under a small budget. The codec
// path legitimately allocates (Pack returns fresh slices that snapshots
// retain), so the bound is a cap, not zero.
func TestExecutePathAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement skipped in -short mode")
	}
	runOnce := func(end vtime.Time) (mallocs uint64, events int64) {
		m := phold.New(phold.Config{
			Objects: 8, TokensPerObject: 2, MeanDelay: 10,
			Locality: 1, LPs: 1, Seed: 5, StatePadding: 256,
		})
		cfg := DefaultConfig(end)
		cfg.Cancellation = cancel.Config{Mode: cancel.Dynamic, FilterDepth: 16}
		cfg.Checkpoint = statesave.Config{Mode: statesave.Dynamic, Interval: 4, Period: 256}
		cfg.Codec = codec.Config{Mode: codec.Delta, Compression: codec.LZ}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		res, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - m0, res.Stats.EventsCommitted
	}
	shortAllocs, shortEvents := runOnce(3_000)
	longAllocs, longEvents := runOnce(30_000)
	if longEvents <= shortEvents {
		t.Fatalf("long run committed %d events, short %d; cannot take a marginal measurement",
			longEvents, shortEvents)
	}
	// Most of either count is the event pool filling to its peak, the events
	// one GVT period of wall time leaves uncollected, and not the events
	// themselves: a long run whose GVT keeps pace allocates little more than
	// a short one, and a short one whose first GVT comes late can allocate
	// more.
	if longAllocs < shortAllocs {
		t.Fatalf("the long run allocated %d times over %d committed events, the short run %d over %d: no marginal measurement",
			longAllocs, longEvents, shortAllocs, shortEvents)
	}
	perEvent := float64(longAllocs-shortAllocs) / float64(longEvents-shortEvents)
	t.Logf("marginal allocations: %.2f per committed event (facets enabled)", perEvent)
	// Measured ~0.2 on the machine that recorded the baselines; the budget
	// leaves room for GVT-cycle and scheduler wall-clock variance while
	// still catching any real per-event regression.
	const budget = 4.0
	if perEvent > budget {
		t.Errorf("facets-enabled execute path allocates %.2f per event, budget %.1f", perEvent, budget)
	}
}

// TestWorkerPoolAllocationBudget pins a dispatcher narrower than the LP count
// to the same marginal per-event allocation discipline: spillbox delivery,
// schedule-heap churn and worker wakeups must not reintroduce per-event
// garbage. Sparse PHOLD keeps the model side allocation-free; the bound is a
// cap (spillbox slices grow amortized, per-worker pools warm up), not zero.
// A hot spot skews the load, so the long run remaps LPs between its workers:
// an adopted LP then recycles its events and wire buffers through the adopter's
// pool and list (lpRun.bind), and none of that may cost allocations either.
func TestWorkerPoolAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement skipped in -short mode")
	}
	runOnce := func(end vtime.Time) (mallocs uint64, events, adoptions int64) {
		m := phold.New(phold.Config{
			Objects: 96, TokensPerObject: 2, MeanDelay: 10,
			Locality: 0.5, LPs: 12, Seed: 4, Sparse: true, HotSpot: 0.3,
		})
		cfg := DefaultConfig(end)
		cfg.Workers = 3
		cfg.GVTPeriod = time.Millisecond // a remap scan then sees thousands of commits
		cfg.Checkpoint = statesave.Config{Mode: statesave.Periodic, Interval: 4}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		res, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		for _, w := range res.PerWorker {
			adoptions += w.Adoptions
		}
		return ms.Mallocs - m0, res.Stats.EventsCommitted, adoptions
	}
	shortAllocs, shortEvents, _ := runOnce(3_000)
	longAllocs, longEvents, adoptions := runOnce(30_000)
	if longEvents <= shortEvents {
		t.Fatalf("long run committed %d events, short %d; cannot take a marginal measurement",
			longEvents, shortEvents)
	}
	if adoptions == 0 {
		t.Fatal("no LP changed workers in the long run: the rebinding was not exercised")
	}
	perEvent := float64(longAllocs-shortAllocs) / float64(longEvents-shortEvents)
	t.Logf("marginal allocations: %.2f per committed event (worker pool, %d adoptions)", perEvent, adoptions)
	const budget = 4.0
	if perEvent > budget {
		t.Errorf("worker-pool execute path allocates %.2f per event, budget %.1f", perEvent, budget)
	}
}

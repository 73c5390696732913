package core

// The event dispatcher — the kernel's one execution engine. Worker goroutines
// host all of a process's logical processes, each worker pulling the
// lowest-timestamped runnable object from its one schedule tree (a winner tree
// over every object of the LPs it owns, each LP a contiguous range of slots,
// keyed with the deterministic (vt, seq, object-id) tie-break; the type is
// still pq.ScheduleHeap, a name benchmark/layers.go compiles against).
// It follows the Warped2 TimeWarpEventDispatcher structure — worker threads
// and a communication manager in one place: object count is not bounded by
// per-goroutine footprint, a few hot LPs do not strand the cores of their idle
// peers, and a rank of a distributed run is simply a pool over the LPs that
// rank hosts. The worker count is a property of the machine and of who else
// is on it, not of the model: Config.Workers == 0 is min(hosted LPs,
// GOMAXPROCS, max(1, NumCPU / ranks on this host)): a worker per hosted LP up
// to this rank's share of the machine's cores, so that least-timestamp-first
// decides which LP a core runs next; with more workers on the machine than
// cores — this rank's or, together, those of every rank a transport placed
// there — a scheduler decides instead, round-robin, whatever the LPs' virtual
// times. A worker per LP remains an explicit width.
//
// The only goroutines a run needs on a core are its workers. Every run has a
// transport — without a Config.Transport, comm.InProc — and every LP reads
// its packets from one place, its spillbox, which the transport fills
// through the sink newKernel installs (deliver): in process on the sender's
// goroutine, over TCP on the worker whose poll read the frame. Each worker
// round begins by polling the transport for what the peers sent and ends by
// flushing what this rank sent, so the sockets are read and written by the
// workers themselves. The flush that ends a round is an offer — the
// transport may let a link's frames wait for the next rounds'
// (comm.Transport has the terms) — and the one before a worker waits is not.
// Workers never block (they yield between rounds and sleep only when idle),
// which is exactly why they cannot leave the socket to a reader goroutine
// parked in Go's netpoller — the network is polled only from an idle P or
// sysmon's 10 ms tick, and a frame would wait that long — and why they must
// never block on a socket either: two ranks each blocked writing to the other
// are each other's only readers. A worker that does sleep leaves its P idle,
// and there the netpoller answers at once, so before it sleeps it arms the
// transport's doorbell (comm.Transport's Arm): the next frame to reach a
// socket rings, and the ring pokes the workers. Channels stay at the
// transport's edge; nothing in the kernel selects on one.
//
// Single-owner semantics hold by pinning: every LP (and with it every hosted
// object, input queue, state queue, cancellation manager and event pool
// reference) is owned by exactly one worker per scheduling epoch. Rollback,
// fossil collection and state saving run on the owning worker, untouched.
// GVT participation batches per worker as a consequence of ownership: the
// Mattern token's hops across same-worker LPs complete within one worker
// drain round, so a W-worker run pays ~W wake-ups per GVT round rather than
// one per LP. The optimism facet gates each worker's queue through the LP's
// horizon field, checked in exec and set once per applied GVT from the
// window that GVT's broadcast carries, so a tightened window throttles every
// worker identically.
//
// Re-mapping on line: each LP records its progress at every GVT application
// (progress.go) and, every remapEvery applications on the first hosted LP, the
// dispatcher recomputes an LP→worker assignment by longest-processing-time
// greedy packing. Ownership moves by a barrier-free release/adopt handoff: the
// current owner notices the new epoch, pushes the LP onto the target worker's
// adoption queue under that worker's mutex (the mutex hand-over is the
// happens-before edge for all the LP's unsynchronized state), and the adopter
// rebinds the LP's event pool to its own. The balancer composes: it migrates
// objects between LPs, the dispatcher migrates LPs between workers.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gowarp/internal/comm"
	"gowarp/internal/control"
	"gowarp/internal/event"
	"gowarp/internal/pq"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// poolBatch bounds how many events a worker executes from its schedule queue
// between communication pumps, trading scheduling precision for pump
// amortization.
const poolBatch = 32

// remapEvery is the number of GVT applications between LP→worker remap scans.
const remapEvery = 8

// remapGain is the dead zone of the remap controller: LPs move only when the
// busiest worker committed more than remapGain times what the busiest worker
// of the new packing would have. Without it, noise on equal loads regroups
// the LPs at every scan.
const remapGain = 1.25

// remapMinSample is how many commits per worker a remap scan's window must
// hold before its loads are compared: on equal loads the busiest of a few
// workers then reads a few per cent above the mean, well inside remapGain. A
// window with fewer — a short GVT period, a slow host — grows until it does.
const remapMinSample = 512

// spillbox is one LP's mailbox: an unbounded mutex-guarded packet queue. A
// bounded channel here would deadlock — a worker blocked sending to a full
// inbox may itself own the only goroutine that could drain it — while the
// spillbox never blocks a sender; the optimism window bounds how far any LP
// can run ahead, which bounds the backlog in practice.
type spillbox struct {
	mu sync.Mutex
	n  atomic.Int32 // queued count, for a lock-free empty check
	q  []comm.Packet
}

func (b *spillbox) put(p comm.Packet) {
	b.mu.Lock()
	b.q = append(b.q, p)
	b.n.Store(int32(len(b.q)))
	b.mu.Unlock()
}

// take empties the box and returns what it held.
func (b *spillbox) take() []comm.Packet {
	b.mu.Lock()
	q := b.q
	b.q = nil
	b.n.Store(0)
	b.mu.Unlock()
	return q
}

// dispatcher owns the worker fleet and delivers to the hosted LPs. The
// LP→worker maps live on the LPs themselves (lpRun.worker, target).
type dispatcher struct {
	lps     []*lpRun // the LPs this process hosts
	byID    []*lpRun // global LP id → hosted LP; nil for LPs on other ranks
	workers []*worker
	// tr is the run's transport, which the workers drive: polled at the start
	// of every worker round, flushed at the end, and armed before a worker
	// waits. Its sink is d.deliver and its ring d.ring.
	tr comm.Transport
	// idleTick is the longest a worker waits for a poke: the longest an idle
	// LP 0 takes to force a GVT computation, and how often an idle worker
	// looks at a transport that cannot ring. Where every P is idle, Linux's
	// netpoller rounds any wait under 1 ms up to 1 ms, and so this too.
	idleTick time.Duration
	// live counts the hosted LPs still running; the workers retire together
	// when it reaches zero, never one by one — a worker that owns nothing at
	// the moment may be the target of the next handoff.
	live atomic.Int32
	// epoch bumps when a remap publishes new targets; each worker then
	// releases the LPs whose target moved away.
	epoch  atomic.Uint64
	remaps atomic.Int64
	// tick fires a remap scan every remapEvery GVT applications and win is
	// what the scan reads; both belong to the first hosted LP's applyGVT,
	// serialized by that LP's ownership, and are nil while there are no more
	// LPs than workers.
	tick *control.Ticker
	win  *progressWindow

	// rough is the roughness observer; like tick and win its sample belongs
	// to the first hosted LP's applyGVT.
	rough roughness
}

// defaultWorkers is the width Config.Workers == 0 stands for, min(hosted LPs,
// GOMAXPROCS, max(1, NumCPU / ranks on this host)): a worker per hosted LP up
// to this rank's share of the machine's cores. hostRanks is what the run's
// transport says of its placement (comm.Peers.HostRanks; 0, unknown or no
// transport, counts as 1). GOMAXPROCS caps the share and is not itself
// divided, so ranks that were each given their own are not halved twice.
func defaultWorkers(hosted, hostRanks int) int {
	share := max(1, runtime.NumCPU()/max(1, hostRanks))
	return min(hosted, runtime.GOMAXPROCS(0), share)
}

// newDispatcher builds numWorkers idle workers for a process hosting the
// LPs attach will hand it.
func newDispatcher(numWorkers, numLPs int, cfg *Config) *dispatcher {
	d := &dispatcher{
		byID:     make([]*lpRun, numLPs),
		idleTick: cfg.GVTPeriod / 4,
	}
	if d.idleTick <= 0 {
		d.idleTick = 250 * time.Microsecond
	}
	for w := 0; w < numWorkers; w++ {
		d.workers = append(d.workers, &worker{
			id:   w,
			d:    d,
			pool: event.NewPool(),
			wake: make(chan struct{}, 1),
		})
	}
	return d
}

// attach hosts lp, the h-th of n, on its initial worker: block sharding, like
// comm.BlockRanks. The LP's event pool and wire buffers are its worker's.
func (d *dispatcher) attach(lp *lpRun, h, n int) {
	w := d.workers[h*len(d.workers)/n]
	lp.d = d
	lp.bind(w)
	lp.worker.Store(int32(w.id))
	lp.target.Store(int32(w.id))
	w.owned = append(w.owned, lp)
	d.lps = append(d.lps, lp)
	d.byID[lp.id] = lp
	d.live.Add(1)
}

// deliver is the transport's sink: it puts p into hosted LP dst's spillbox
// and wakes its worker. The transport has charged the cost already.
func (d *dispatcher) deliver(dst int, p comm.Packet) {
	lp := d.byID[dst]
	lp.spill.put(p)
	d.workers[lp.worker.Load()].poke()
}

// ring is the transport's doorbell (comm.Transport's Arm): a peer's frame is
// in a socket, and any worker's poll delivers it to whichever LP it is for.
// Once the workers are gone, gatherReports waits on the first one's wake
// channel.
func (d *dispatcher) ring() {
	for _, w := range d.workers {
		w.poke()
	}
}

// release retires every worker: the last hosted LP stopped, or a worker
// panicked and the run is over.
func (d *dispatcher) release() {
	d.live.Store(0)
	for _, w := range d.workers {
		w.poke()
	}
}

// handoff moves lp to worker to. lp is running, so the fleet is live and the
// target will see the adoption.
func (d *dispatcher) handoff(lp *lpRun, to int) {
	tw := d.workers[to]
	tw.mu.Lock()
	lp.worker.Store(int32(to))
	tw.adoptQ = append(tw.adoptQ, lp)
	tw.mu.Unlock()
	tw.poke()
	d.remaps.Add(1)
}

// maybeRemap runs on the first hosted LP's owning worker at each GVT
// application. Every remapEvery applications it packs the LPs onto the
// workers by greedy longest-processing-time over what each LP committed since
// the last scan — the share of the model's work it hosts, free of the
// scheduling noise in what it merely executed — and, when that would take
// more than remapGain off the busiest worker, publishes the packing and wakes
// every worker to apply it. With a worker per LP there is nothing to pack.
//
// The loads are the scan's progressWindow, cut at one GVT for every LP. A
// scan that cannot read it, or finds too few commits in it to compare,
// decides nothing and leaves the window open for the next scan to extend.
func (d *dispatcher) maybeRemap() {
	if d.win == nil || !d.tick.Tick() {
		return
	}
	win, total, ok := d.win.observe(d.lps[0].loads[0].at)
	if !ok || total.committed < remapMinSample*int64(len(d.workers)) {
		return
	}
	d.win.decide()
	order := make([]int, len(d.lps))
	current := make([]int64, len(d.workers)) // load by present owner
	var busiest int64
	for i, lp := range d.lps {
		order[i] = i
		w := lp.worker.Load()
		current[w] += win[i].committed
		busiest = max(busiest, current[w])
	}
	sort.SliceStable(order, func(a, b int) bool { return win[order[a]].committed > win[order[b]].committed })

	type bin struct {
		load  int64
		count int
	}
	nw := len(d.workers)
	bins := make([]bin, nw)
	held := make([]int, nw*nw) // held[b*nw+w]: LPs of bin b that worker w owns now
	plan := make([]int, len(d.lps))
	var packed int64
	for _, i := range order {
		best := 0
		for b := 1; b < len(bins); b++ {
			if bins[b].load < bins[best].load ||
				(bins[b].load == bins[best].load && bins[b].count < bins[best].count) {
				best = b
			}
		}
		bins[best].load += win[i].committed
		bins[best].count++
		held[best*nw+int(d.lps[i].worker.Load())]++
		plan[i] = best
		packed = max(packed, bins[best].load)
	}
	if float64(busiest) <= remapGain*float64(packed) {
		return
	}
	// LPT numbers its bins by load order. Name each after the worker that
	// already owns most of its LPs, so that only LPs whose grouping changed
	// move.
	name := make([]int32, nw)
	taken := make([]bool, nw)
	for b := range bins {
		best := -1
		for w, n := range held[b*nw : (b+1)*nw] {
			if !taken[w] && (best < 0 || n > held[b*nw+best]) {
				best = w
			}
		}
		name[b], taken[best] = int32(best), true
	}
	for i, lp := range d.lps {
		lp.target.Store(name[plan[i]])
	}
	d.epoch.Add(1)
	for _, w := range d.workers {
		w.poke()
	}
}

// publishMetrics refreshes the gowarp_worker_* metric slots from the worker
// atomics; called from the first hosted LP's GVT application (any thread may
// read them).
func (d *dispatcher) publishMetrics(m *runMetrics) {
	for _, w := range d.workers {
		m.workerEvents.Set(w.id, float64(w.events.Load()))
		m.workerBusy.Set(w.id, float64(w.busyNS.Load())/1e9)
		m.workerOwned.Set(w.id, float64(w.ownedN.Load()))
		m.workerRunnable.Set(w.id, float64(w.runnable.Load()))
		m.workerAdoptions.Set(w.id, float64(w.adoptions.Load()))
	}
	m.workerRemaps.Set(0, float64(d.remaps.Load()))
}

// finalStats assembles the per-worker report and the final LP→worker map
// (indexed by global LP id; -1 for LPs other ranks host).
func (d *dispatcher) finalStats() (ws []stats.WorkerStats, assign []int) {
	for _, w := range d.workers {
		allocs, reuses := w.pool.Stats()
		ws = append(ws, stats.WorkerStats{
			Worker:          w.id,
			Events:          w.events.Load(),
			BusySeconds:     float64(w.busyNS.Load()) / 1e9,
			OwnedLPs:        int(w.ownedN.Load()),
			Adoptions:       w.adoptions.Load(),
			EventPoolAllocs: allocs,
			EventPoolReuses: reuses,
		})
	}
	assign = make([]int, len(d.byID))
	for id, lp := range d.byID {
		assign[id] = -1
		if lp != nil {
			assign[id] = int(lp.worker.Load())
		}
	}
	return ws, assign
}

// worker is one dispatcher thread: a goroutine owning a disjoint set of LPs
// and a least-timestamp-first schedule tree over their objects.
type worker struct {
	id    int
	d     *dispatcher
	pool  *event.Pool // shared by every owned LP; rebound on adoption
	wires [][]byte    // likewise: the owned LPs' endpoints' free wire buffers
	owned []*lpRun
	lp0   *lpRun // the owned LP with id 0, if any (GVT initiator)
	// sched is the schedule tree over the owned LPs' objects, in owned order,
	// each LP's a range from its base; objs is its slot → object map.
	sched   pq.ScheduleHeap
	objs    []*simObject
	wake    chan struct{}
	idleTmr *time.Timer
	seen    uint64 // last remap epoch applied

	mu     sync.Mutex
	adoptQ []*lpRun

	// Cross-worker-readable counters behind the gowarp_worker_* metrics and
	// the per-worker report.
	events    atomic.Int64
	busyNS    atomic.Int64
	ownedN    atomic.Int64
	runnable  atomic.Int64
	adoptions atomic.Int64
}

// poke wakes the worker if it is idle; a wake-up already pending is enough.
func (w *worker) poke() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// rebuild lays the owned LPs' objects out in a fresh schedule tree, each LP a
// range from its base, and keys those of the running LPs. The ranges move at
// start-up, adoption, release and a migration batch: controller granularity.
func (w *worker) rebuild() {
	n := 0
	w.lp0 = nil
	for _, lp := range w.owned {
		n += len(lp.objs)
		if lp.id == 0 {
			w.lp0 = lp
		}
	}
	// Remade in place: fresh ones per migration batch cost a balanced run
	// about 100 bytes an object more (TestObjectFootprint).
	w.sched.Reset(n)
	clear(w.objs) // objects gone with a released LP or a capsule are not pinned
	if w.objs = w.objs[:0]; cap(w.objs) < n {
		w.objs = make([]*simObject, 0, n+n/16) // the tree's spare, for the same batches
	}
	for _, lp := range w.owned {
		lp.sched, lp.base = &w.sched, len(w.objs)
		w.objs = append(w.objs, lp.objs...)
		if lp.running {
			for _, o := range lp.objs {
				lp.refresh(o)
			}
		}
	}
	w.ownedN.Store(int64(len(w.owned)))
}

// bind makes w's event pool and wire-buffer list lp's: everything lp and its
// objects create, clone, decode or recycle from now on flows through them. The
// objects are not visited — they reach the pool through lp, and their
// cancellation managers through lp.host.
func (lp *lpRun) bind(w *worker) {
	lp.pool, lp.host.Pool, lp.ep.Pool = w.pool, w.pool, w.pool
	lp.ep.Wires = &w.wires
}

// takeAdoptions claims LPs handed to this worker and rebinds them to its
// event pool and wire buffers.
func (w *worker) takeAdoptions() {
	w.mu.Lock()
	q := w.adoptQ
	w.adoptQ = nil
	w.mu.Unlock()
	if len(q) == 0 {
		return
	}
	for _, lp := range q {
		lp.bind(w)
		w.owned = append(w.owned, lp)
		w.adoptions.Add(1)
	}
	w.rebuild()
}

// applyRemap releases owned LPs whose remap target moved elsewhere.
func (w *worker) applyRemap() {
	e := w.d.epoch.Load()
	if e == w.seen {
		return
	}
	w.seen = e
	kept := w.owned[:0]
	for _, lp := range w.owned {
		if tgt := int(lp.target.Load()); tgt != w.id && lp.running {
			w.d.handoff(lp, tgt)
			continue
		}
		kept = append(kept, lp)
	}
	if len(kept) < len(w.owned) {
		clear(w.owned[len(kept):]) // released LPs are not pinned by the backing array
		w.owned = kept
		w.rebuild()
	}
}

// run is the worker goroutine body, one round per iteration: poll the
// transport, adopt, pump every owned LP's communication, execute up to
// poolBatch events least-timestamp-first across the owned LPs' objects, flush
// the transport; idle on the wake channel when nothing was runnable. It
// returns once every LP the process hosts has stopped.
func (w *worker) run() {
	for _, lp := range w.owned {
		lp.initObjects()
	}
	for w.d.live.Load() > 0 {
		w.d.tr.Poll()
		w.takeAdoptions()
		w.applyRemap()
		now := time.Now()
		runnable := 0
		for _, lp := range w.owned {
			if lp.running {
				lp.pump(now)
			}
			if lp.met != nil { // a range query per LP and round, for the metrics registry alone
				if _, t := lp.sched.MinIn(lp.base, lp.base+len(lp.objs)); t != vtime.PosInf {
					runnable++
				}
			}
		}
		w.runnable.Store(int64(runnable))
		start := time.Now()
		executed := 0
		for executed < poolBatch {
			slot, t := w.sched.Min()
			if t == vtime.PosInf {
				break
			}
			o := w.objs[slot]
			if executed > 0 && o.lp.spill.n.Load() != 0 {
				break // mail since the pump: it may hold a straggler for this very event
			}
			if !o.lp.exec(o, t) {
				break
			}
			executed++
		}
		if executed > 0 {
			w.events.Add(int64(executed))
			w.busyNS.Add(time.Since(start).Nanoseconds())
			w.d.tr.Flush(false)
			// Yield between rounds so that whatever else the process runs —
			// the caller's own goroutines, a transport's — gets a core even when
			// the workers occupy them all. The workers of another rank on this
			// machine are not among them: at the default width every rank has
			// its share of the cores.
			runtime.Gosched()
			continue
		}
		w.idle()
	}
	w.d.tr.Flush(true)
}

// idle blocks on the wake channel with a bounded timeout (the next
// aggregation deadline across owned LPs, capped by the idle tick), then
// polls endpoints and — when this worker owns LP 0 — forces a GVT
// computation so global quiescence turns into termination. A frame that
// reaches a socket while the worker waits wakes it too: the worker arms the
// transport's doorbell before it waits, and the ring pokes it. Over a
// transport that cannot ring, the tick is how often an idle worker looks.
func (w *worker) idle() {
	timeout := w.d.idleTick
	for _, lp := range w.owned {
		if !lp.running {
			continue
		}
		lp.drainLazy()
		if dl, ok := lp.ep.NextDeadline(); ok {
			if d := time.Until(dl); d < timeout {
				timeout = d
			}
		}
	}
	// Before the wait: what this round's pump and drains sent, and what the
	// flushes that ended earlier rounds left for company. Then arm and look
	// once more: what came before the arming is read here, anything later
	// rings, and a worker with mail does not wait.
	w.d.tr.Flush(true)
	w.d.tr.Arm()
	w.d.tr.Poll()
	for _, lp := range w.owned {
		if lp.running && lp.spill.n.Load() != 0 {
			timeout = 0
		}
	}
	if timeout > 0 {
		// One timer per worker, reused across idle periods. The Stop/drain
		// dance keeps the channel empty so a later Reset cannot deliver a
		// stale tick (pre-Go-1.23 timer semantics, which this module's go
		// directive selects).
		if w.idleTmr == nil {
			w.idleTmr = time.NewTimer(timeout)
		} else {
			w.idleTmr.Reset(timeout)
		}
		select {
		case <-w.wake:
			if !w.idleTmr.Stop() {
				select {
				case <-w.idleTmr.C:
				default:
				}
			}
		case <-w.idleTmr.C:
		}
	} else {
		// The mail is read next round; the wake-up it left would only cut the
		// next wait short.
		select {
		case <-w.wake:
		default:
		}
	}
	now := time.Now()
	for _, lp := range w.owned {
		if lp.running {
			lp.ep.Poll(now)
		}
	}
	if w.lp0 != nil && w.lp0.running {
		w.lp0.maybeGVT(true)
	}
	w.d.tr.Flush(true)
}

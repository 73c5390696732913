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
// Workers never block (they sleep only when idle), which is exactly why they
// cannot leave the socket to a reader goroutine parked in Go's netpoller —
// the network is polled only from an idle P or sysmon's 10 ms tick, and a
// frame would wait that long — and why they must never block on a socket
// either: two ranks each blocked writing to the other are each other's only
// readers. A worker that does sleep leaves its P idle,
// and there the netpoller answers at once, so before it sleeps it arms the
// transport's doorbell (comm.Transport's Arm): the next frame to reach a
// socket rings, and the ring pokes the workers. Channels stay at the
// transport's edge; nothing in the kernel selects on one. Between rounds a
// worker yields its P only where something else in this process needs it:
// always where this rank has more workers than Ps or the transport's own
// goroutines deliver (yieldsBetweenRounds), and otherwise while another
// worker of this rank waits for a P (dispatcher.wantP). Elsewhere a worker
// keeps its core, and with it its caches, round after round.
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
// Under a bounded window the whole run also shares one virtual-time front.
// Each worker publishes the receive time of its next executable event once a
// round (dispatcher.fronts) and ends its batch at the first event later than
// the least front of the run's other workers plus window/couplingDivisor
// (limitAt): those of its own rank read from their slots, those of the other
// ranks from one slot per rank, which the sink fills. A rank's front, the
// least of its workers', goes to every other rank as a PktNull whenever it
// moves (sendFront). A held worker yields, or parks until a front it waits
// for is published or arrives. A run of one rank has no slot for another,
// and sends nothing.
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
	"fmt"
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

// couplingDivisor sets how far a worker may run ahead of the run's other
// workers under a bounded optimism window w: it executes no event later than
// the least front of the rank's other workers and of the other ranks plus
// w/couplingDivisor (limitAt). Least-timestamp-first order keeps rollbacks
// short inside one worker; the coupling carries that order across the
// workers of a rank and across the ranks, whose cores need not run equally
// fast. The distance between ranks was sized on its own and came out the
// same (EXPERIMENTS.md "One front per fleet").
const couplingDivisor = 64

// parkAfter is how long a worker held by the coupling limit yields round
// after round while the rank's other workers execute nothing before it parks
// until a peer's front moves: a peer whose core another process has taken,
// or that is busy in a long GVT application, would otherwise keep the held
// worker spinning on a core the peer could use.
const parkAfter = 200 * time.Microsecond

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
	// yield is yieldsBetweenRounds for this rank, read once by newKernel:
	// whether a worker calls runtime.Gosched after every round that executed
	// events.
	yield bool
	// wantP counts this rank's workers that wait for a P: poked out of
	// idle's wait and not yet running, or yielded and not yet resumed. A
	// worker yields after a round while it is above zero. Go's scheduler
	// puts a worker a poke wakes on the poker's P, and another P's idle
	// thread can take it only once the kernel wakes that thread, tens of
	// microseconds on a virtual machine's idle vCPU; a yield hands it the
	// poker's P at the end of the round.
	wantP atomic.Int32
	// fronts holds each worker's published virtual-time front, indexed by
	// worker id (see worker.publish), then, on a run of several ranks, each
	// other rank's front as its last PktNull said (see remoteArrived), in
	// rank order: each on a cache line of its own.
	fronts []front
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

	// failed is the first failure the run met (see fail): nil while the run
	// goes well.
	failed atomic.Pointer[failure]

	// rank is this rank, and others the first LP of each other rank in rank
	// order, where this rank's front goes (see sendFront). sent is the front
	// they were sent last, which sendMu guards with the sends themselves, so
	// that the frames leave in the order of the values they carry. They come
	// last, so that the fields every round reads keep their cache lines.
	rank   int
	others []int
	sendMu sync.Mutex
	sent   vtime.Time
}

// front is one worker's published virtual-time front: the receive time of the
// next event it would execute, +inf when it has none it may execute; and,
// while the coupling limit parks it, the least peer front it waits for (need,
// otherwise +inf). The pad gives them a cache line of their own: the owner
// writes them, and every other worker of the rank reads them once a round.
// Another rank's slot has only t, which the sink writes.
type front struct {
	t, need atomic.Int64
	_       [48]byte
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

// yieldsBetweenRounds is whether a rank's workers yield their Ps after every
// round: where something else in this process always needs one — more
// workers than Ps (an explicit width, or a worker per LP), whose turns Go's
// scheduler must rotate, or a transport whose own goroutines read the
// sockets and deliver (readers: comm.TCP's reader driver, where the
// non-blocking socket calls are missing). Otherwise a worker yields only
// while another of the rank's workers waits for a P (dispatcher.wantP), and
// keeps its core and its caches the rest of the time; any other goroutine
// that becomes runnable while every worker is busy gets a P when one waits,
// or when Go's scheduler preempts one after its 10 ms slice. Other ranks on
// the host do not count: at the default width each has its share of the
// cores, and a yield cannot hand a core to another process.
func yieldsBetweenRounds(workers, procs int, readers bool) bool {
	return workers > procs || readers
}

// newDispatcher builds numWorkers idle workers for a process hosting the
// LPs attach will hand it.
func newDispatcher(numWorkers, numLPs int, cfg *Config) *dispatcher {
	d := &dispatcher{
		byID:     make([]*lpRun, numLPs),
		idleTick: cfg.GVTPeriod / 4,
		fronts:   newFronts(numWorkers),
		sent:     vtime.PosInf,
	}
	if d.idleTick <= 0 {
		d.idleTick = 250 * time.Microsecond
	}
	for w := 0; w < numWorkers; w++ {
		d.workers = append(d.workers, &worker{
			id:    w,
			d:     d,
			pool:  event.NewPool(),
			wake:  make(chan struct{}, 1),
			front: vtime.PosInf,
		})
	}
	return d
}

// newFronts returns n front slots, every value in them +inf.
func newFronts(n int) []front {
	fs := make([]front, n)
	for i := range fs {
		fs[i].t.Store(int64(vtime.PosInf))
		fs[i].need.Store(int64(vtime.PosInf))
	}
	return fs
}

// join gives the dispatcher, before any worker runs, a front slot for each
// rank of peers but its own, at +inf until that rank sends its front. A run
// of one rank has none.
func (d *dispatcher) join(peers comm.Peers) {
	d.rank = peers.Rank
	for r := 0; r < peers.NumRanks; r++ {
		if r != peers.Rank {
			d.others = append(d.others, comm.BlockRanks(peers.NumLPs, peers.NumRanks, r)[0])
		}
	}
	if len(d.others) > 0 {
		d.fronts = newFronts(len(d.workers) + len(d.others))
	}
}

// peerFront is the least front the rank's workers other than self have
// published and the other ranks have sent: +inf when there is no other
// worker or rank, or none has an event it may execute.
func (d *dispatcher) peerFront(self int) vtime.Time {
	least := vtime.PosInf
	for i := range d.fronts {
		if i != self {
			least = min(least, vtime.Time(d.fronts[i].t.Load()))
		}
	}
	return least
}

// sendFront sends every other rank this rank's front, the least its workers
// have published, when it is not the one they were sent last. The frames go
// out under sendMu, so that each rank's slot here ends at the last value
// sent.
func (d *dispatcher) sendFront() {
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	f := vtime.PosInf
	for i := range d.workers {
		f = min(f, vtime.Time(d.fronts[i].t.Load()))
	}
	if f == d.sent {
		return
	}
	d.sent = f
	for _, lp := range d.others {
		d.tr.Send(lp, comm.Packet{Kind: comm.PktNull, From: d.rank, Bound: f}, 0)
	}
}

// remoteArrived is what the sink does with rank's front f: it stores f in
// the rank's slot and pokes every worker parked for a front of f or earlier.
// A front that names no other rank fails the run.
func (d *dispatcher) remoteArrived(rank int, f vtime.Time) {
	if rank == d.rank || rank < 0 || rank > len(d.others) {
		d.fail(&failure{rank: d.rank, msg: fmt.Sprintf("a front from rank %d, not another of the run's %d ranks", rank, len(d.others)+1)})
		return
	}
	slot := len(d.workers) + rank
	if rank > d.rank {
		slot--
	}
	d.fronts[slot].t.Store(int64(f))
	d.reached(f)
}

// reached pokes every worker parked for a front of t or earlier (see wait).
func (d *dispatcher) reached(t vtime.Time) {
	for i, w := range d.workers {
		if need := vtime.Time(d.fronts[i].need.Load()); need != vtime.PosInf && !need.After(t) {
			w.poke()
		}
	}
}

// peerEvents is the count of events the rank's workers other than self have
// executed.
func (d *dispatcher) peerEvents(self int) int64 {
	var n int64
	for _, w := range d.workers {
		if w.id != self {
			n += w.events.Load()
		}
	}
	return n
}

// limitAt is the latest virtual time a worker may execute at under optimism
// window w when the least front of the rank's other workers and of the other
// ranks is least: least plus w/couplingDivisor, and unbounded when that
// distance is 0 — no window, or one under couplingDivisor, where a worker
// held to its peers' very front ran a sparse model at half speed
// (EXPERIMENTS.md "One front per rank"). The worker that holds the least
// front of the run is never held by it, so the rule cannot deadlock: another
// rank's front reaches this one late, but every held round flushes what its
// rank sent, its front among it, so once two ranks have read each other's
// latest fronts at most one of them stays held. The distance follows the
// window wherever the adaptive optimism facet moves it.
func limitAt(least, w vtime.Time) vtime.Time {
	if w/couplingDivisor <= 0 {
		return vtime.PosInf
	}
	return least.Add(w / couplingDivisor)
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
// and wakes its worker. The transport has charged the cost already. A stop
// and a front are for the rank, not the LP: after a stop the run has failed
// where it names, and the workers retire; a front is the sending rank's (see
// remoteArrived).
func (d *dispatcher) deliver(dst int, p comm.Packet) {
	switch p.Kind {
	case comm.PktStop:
		d.fail(&failure{rank: p.From, msg: string(p.Payload), stop: true})
		return
	case comm.PktNull:
		d.remoteArrived(p.From, p.Bound)
		return
	}
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

// fail records f, unless the run has failed already, and retires the
// workers.
func (d *dispatcher) fail(f *failure) {
	d.failed.CompareAndSwap(nil, f)
	d.release()
}

// release retires every worker: the last hosted LP stopped, or the run has
// failed.
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
		m.workerHeld.Set(w.id, float64(w.heldN.Load()))
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
			HeldRounds:      w.heldN.Load(),
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
	seen    uint64     // last remap epoch applied
	front   vtime.Time // what the worker last published in d.fronts[id]
	// heldSince is when the rank's other workers last executed an event, as
	// seen from the worker's current run of held rounds: peerEvents had that
	// value then. It is zero when the worker's last round was not held.
	heldSince  time.Time
	peerEvents int64

	mu     sync.Mutex
	adoptQ []*lpRun
	// waiting is set while the worker waits in idle and no poke has counted
	// it in wantP.
	waiting atomic.Bool

	// Cross-worker-readable counters behind the gowarp_worker_* metrics and
	// the per-worker report.
	events    atomic.Int64
	busyNS    atomic.Int64
	ownedN    atomic.Int64
	runnable  atomic.Int64
	adoptions atomic.Int64
	heldN     atomic.Int64 // rounds held by the coupling limit
}

// poke wakes the worker if it is idle; a wake-up already pending is enough.
// The poke that ends a wait counts the worker in wantP until it runs.
func (w *worker) poke() {
	select {
	case w.wake <- struct{}{}:
		if w.waiting.CompareAndSwap(true, false) {
			w.d.wantP.Add(1)
		}
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
// transport, adopt, pump every owned LP's communication, publish the worker's
// front, execute up to poolBatch events least-timestamp-first across the owned
// LPs' objects up to the coupling limit, flush the transport; idle on the wake
// channel when nothing was runnable. A worker that idles has published +inf
// in that round, so it holds no peer through its wait. A round held by the
// coupling limit yields and starts the next round; once the rank's other
// workers have executed nothing for parkAfter, it waits instead until a peer
// publishes, or another rank sends, the front it waits for (see wait). run
// returns once every LP the process hosts has stopped.
func (w *worker) run() {
	for _, lp := range w.owned {
		lp.initObjects()
	}
	for w.d.live.Load() > 0 {
		w.d.tr.Poll()
		w.takeAdoptions()
		w.applyRemap()
		w.pump()
		// Publish, then read the peers': of two workers doing so at once, at
		// least one reads the other's new front.
		slot, t := w.sched.Min()
		if t != vtime.PosInf && !w.objs[slot].lp.runnable(t) {
			t = vtime.PosInf
		}
		w.publish(t)
		least := w.d.peerFront(w.id)
		need := vtime.PosInf
		var start time.Time
		executed := 0
		for executed < poolBatch && t != vtime.PosInf {
			o := w.objs[slot]
			if executed > 0 && o.lp.spill.n.Load() != 0 {
				break // mail since the pump: it may hold a straggler for this very event
			}
			if !o.lp.runnable(t) {
				break
			}
			if t.After(limitAt(least, o.lp.window)) {
				if executed == 0 {
					need = t.Add(-(o.lp.window / couplingDivisor))
				}
				break
			}
			if executed == 0 {
				start = time.Now()
			}
			o.lp.exec(o)
			executed++
			slot, t = w.sched.Min()
		}
		if need == vtime.PosInf {
			w.heldSince = time.Time{}
		}
		if executed > 0 {
			w.events.Add(int64(executed))
			w.busyNS.Add(time.Since(start).Nanoseconds())
			w.d.tr.Flush(false)
			// Yield only where another worker of this rank, or a transport
			// goroutine, waits for a P; a worker with a P of its own keeps it,
			// so the scheduler does not move it and its working set to another
			// core.
			if w.d.yield {
				runtime.Gosched()
			} else if w.d.wantP.Load() > 0 {
				w.d.wantP.Add(1)
				runtime.Gosched()
				w.d.wantP.Add(-1)
			}
			continue
		}
		if need != vtime.PosInf {
			// The rank's other workers, or another rank, are behind. Wait for
			// them by yielding; once the rank's other workers have executed
			// nothing for parkAfter, park until a front of need or later is
			// published here or arrives from another rank.
			w.heldN.Add(1)
			now := time.Now()
			if p := w.d.peerEvents(w.id); w.heldSince.IsZero() || p != w.peerEvents {
				w.heldSince, w.peerEvents = now, p
			}
			if now.Sub(w.heldSince) < parkAfter {
				w.d.tr.Flush(true)
				runtime.Gosched()
			} else {
				w.wait(need)
			}
			continue
		}
		w.idle()
	}
	w.d.tr.Flush(true)
}

// pump is a round's prologue: every owned LP's communication, then the
// metrics registry's count of runnable LPs.
func (w *worker) pump() {
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
}

// publish makes t the worker's front in d.fronts: the receive time of the
// next event it would execute, or +inf when it has none it may execute. It
// writes only a changed front, so a peer re-reads the line only when it moved,
// and then pokes every parked peer waiting for a front of t or earlier. On a
// run of several ranks the rank's front may have moved with it, and then goes
// to the other ranks (sendFront).
func (w *worker) publish(t vtime.Time) {
	if t == w.front {
		return
	}
	w.front = t
	w.d.fronts[w.id].t.Store(int64(t))
	w.d.reached(t)
	if len(w.d.others) > 0 {
		w.d.sendFront()
	}
}

// idle waits for a poke (see wait), then polls endpoints and — when this
// worker owns LP 0 — forces a GVT computation so global quiescence turns into
// termination.
func (w *worker) idle() {
	w.wait(vtime.PosInf)
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

// wait blocks on the wake channel with a bounded timeout (the next
// aggregation deadline across owned LPs, capped by the idle tick). A frame
// that reaches a socket while the worker waits wakes it too: the worker arms
// the transport's doorbell before it waits, and the ring pokes it. Over a
// transport that cannot ring, the tick is how often an idle worker looks. A
// held worker passes the least peer front it waits for as need (+inf for an
// idle one) and announces it in d.fronts, where the peer that publishes such
// a front pokes it (publish), as does the sink that delivers one from
// another rank (remoteArrived).
func (w *worker) wait(need vtime.Time) {
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
	// Announce, then read the peers' fronts: a front published or delivered
	// meanwhile is read here, or its publisher or the sink reads need and
	// pokes.
	f := &w.d.fronts[w.id]
	if need != vtime.PosInf {
		f.need.Store(int64(need))
		if !w.d.peerFront(w.id).Before(need) {
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
		w.waiting.Store(true)
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
		if !w.waiting.CompareAndSwap(true, false) {
			w.d.wantP.Add(-1) // a poke counted this worker
		}
	} else {
		// The mail is read next round; the wake-up it left would only cut the
		// next wait short.
		select {
		case <-w.wake:
		default:
		}
	}
	if need != vtime.PosInf {
		f.need.Store(int64(vtime.PosInf))
	}
}

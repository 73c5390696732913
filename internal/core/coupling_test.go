package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/audit"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// TestCouplingLimit: a worker may run couplingDivisor-ths of the window past
// the least front of the rank's other workers — its own front never counts,
// peers with nothing to execute (+inf) hold nobody, and neither an unbounded
// window, nor one whose distance would be 0, nor a rank of one worker couples
// at all.
func TestCouplingLimit(t *testing.T) {
	const inf = vtime.PosInf
	for _, tc := range []struct {
		name   string
		fronts []vtime.Time
		self   int
		window vtime.Time
		want   vtime.Time
	}{
		{"one worker", []vtime.Time{40}, 0, 640, inf},
		{"the peer has nothing to execute", []vtime.Time{40, inf}, 0, 640, inf},
		{"every front at +inf", []vtime.Time{inf, inf, inf}, 1, 640, inf},
		{"the peer's front plus window/64", []vtime.Time{40, 100}, 0, 640, 110},
		{"its own front excluded", []vtime.Time{5, 100}, 0, 640, 110},
		{"the least of two peers", []vtime.Time{500, 100, 70}, 0, 640, 80},
		{"the least front's holder, by the next least", []vtime.Time{500, 100, 70}, 2, 640, 110},
		{"an unbounded window", []vtime.Time{40, 100}, 0, 0, inf},
		{"a window under the divisor: distance 0, uncoupled", []vtime.Time{40, 100}, 0, 63, inf},
		{"the least window that couples: distance 1", []vtime.Time{40, 100}, 0, 64, 101},
		{"phold-pool's window of 100: distance 1", []vtime.Time{0, 7}, 0, 100, 8},
	} {
		cfg := DefaultConfig(1000)
		d := newDispatcher(len(tc.fronts), len(tc.fronts), &cfg)
		for i, f := range tc.fronts {
			d.fronts[i].t.Store(int64(f))
		}
		if got := limitAt(d.peerFront(tc.self), tc.window); got != tc.want {
			t.Errorf("%s: worker %d of fronts %v, window %d: limit %v, want %v", tc.name, tc.self, tc.fronts, tc.window, got, tc.want)
		}
	}
}

// tally is a state that counts the events its object executed.
type tally struct{ n int64 }

func (s *tally) Clone() model.State { c := *s; return &c }
func (s *tally) StateBytes() int    { return 8 }

// relayObject passes one token to its peer, delay later each time, until an
// event at stop or later; first > 0 seeds the token at Init, that far ahead.
type relayObject struct {
	name               string
	peer               event.ObjectID
	first, delay, stop vtime.Time
}

func (r *relayObject) Name() string              { return r.name }
func (r *relayObject) InitialState() model.State { return &tally{} }

func (r *relayObject) Init(ctx model.Context, st model.State) {
	if r.first > 0 {
		ctx.Send(r.peer, r.first, 0, nil)
	}
}

func (r *relayObject) Execute(ctx model.Context, st model.State, ev *event.Event) {
	st.(*tally).n++
	if ctx.Now() < r.stop {
		ctx.Send(r.peer, r.delay, 0, nil)
	}
}

// twoGroupModel is a four-LP model whose LPs 0 and 1 — worker 0's at two
// workers — host a ring of eight relays with one token each, hopping between
// the two LPs for as long as the run lasts, while LPs 2 and 3 (worker 1's)
// host eight relays made by other, each a token ring of its own.
func twoGroupModel(other func(i int) *relayObject) *model.Model {
	m := &model.Model{Name: "two-groups"}
	for i := 0; i < 8; i++ {
		m.Objects = append(m.Objects, &relayObject{
			name: fmt.Sprintf("long.%d", i), peer: event.ObjectID((i + 1) % 8),
			first: vtime.Time(1 + i%3), delay: vtime.Time(1 + i%3), stop: vtime.PosInf,
		})
		m.Partition = append(m.Partition, i%2)
	}
	for i := 0; i < 8; i++ {
		r := other(i)
		r.name, r.peer = fmt.Sprintf("other.%d", i), event.ObjectID(8+(i^1))
		m.Objects = append(m.Objects, r)
		m.Partition = append(m.Partition, 2+i%2)
	}
	return m
}

// TestCoupledWorkersLiveness: the coupling never strands a run. In each row
// worker 1's LPs stop giving worker 0 a front to wait for — they drain early,
// their next events lie past the end time, or past the optimism horizon for
// most of the run — and two workers under a bounded window must still finish
// well inside the bound with the sequential kernel's committed count and
// state hash. A deadlock, or a stale front held through idle waits, shows as
// a run that takes the bound.
func TestCoupledWorkersLiveness(t *testing.T) {
	const end = 3000
	const bound = 20 * time.Second // each run takes milliseconds, also under -race
	for _, tc := range []struct {
		name  string
		other func(i int) *relayObject
	}{
		{"worker 1's LPs drain early", func(i int) *relayObject {
			return &relayObject{first: 1 + vtime.Time(i%2), delay: 2, stop: 50}
		}},
		{"worker 1's next events lie past the end time", func(i int) *relayObject {
			return &relayObject{first: end + 10 + vtime.Time(i%2), delay: 1, stop: vtime.PosInf}
		}},
		{"worker 1's next events lie past the horizon", func(i int) *relayObject {
			return &relayObject{first: 1 + vtime.Time(i%2), delay: 400, stop: vtime.PosInf}
		}},
		{"both workers relay to the end", func(i int) *relayObject {
			return &relayObject{first: 1 + vtime.Time(i%2), delay: 1 + vtime.Time(i%3), stop: vtime.PosInf}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := RunSequential(twoGroupModel(tc.other), end, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(end)
			cfg.Workers = 2
			cfg.Optimism.Window = 128 // a coupling distance of 2
			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			start := time.Now()
			go func() {
				res, err := Run(twoGroupModel(tc.other), cfg)
				done <- outcome{res, err}
			}()
			var out outcome
			select {
			case out = <-done:
			case <-time.After(bound):
				t.Fatalf("the run did not end within %v", bound)
			}
			if out.err != nil {
				t.Fatal(out.err)
			}
			res := out.res
			t.Logf("%v, %d committed, held rounds %d / %d", time.Since(start), res.Stats.EventsCommitted,
				res.PerWorker[0].HeldRounds, res.PerWorker[1].HeldRounds)
			if res.Stats.EventsCommitted != seq.EventsExecuted {
				t.Errorf("committed %d, sequential %d", res.Stats.EventsCommitted, seq.EventsExecuted)
			}
			if got, want := res.Record().FinalStateHash, audit.HashStates(seq.FinalStates); got != want {
				t.Errorf("state hash %#x, sequential %#x", got, want)
			}
		})
	}
}

// TestCouplingIdleWorkerHoldsNoPeer: a worker that has run out of events
// waits in idle with +inf published, whatever front it published before, so
// no peer is held through its wait. Worker 1 runs alone here; worker 0, which
// owns LP 0 and would end the run, never starts.
func TestCouplingIdleWorkerHoldsNoPeer(t *testing.T) {
	m := twoGroupModel(func(i int) *relayObject {
		return &relayObject{first: 1 + vtime.Time(i%2), delay: 2, stop: 20}
	})
	cfg := DefaultConfig(1000)
	cfg.Workers = 2
	cfg.Optimism.Window = 128
	d := newKernel(m, &cfg, comm.Peers{Local: comm.BlockRanks(m.NumLPs(), 1, 0)}, inProc(m, &cfg), nil)
	w := d.workers[1]
	w.publish(5) // a stale front, from before it ran its events
	done := make(chan struct{})
	go func() {
		w.run()
		close(done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !w.waiting.Load() {
		if time.Now().After(deadline) {
			t.Fatal("worker 1 never waited")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := vtime.Time(d.fronts[1].t.Load()); got != vtime.PosInf {
		t.Errorf("worker 1 waits in idle with front %v published, want +inf", got)
	}
	if got := limitAt(d.peerFront(0), cfg.Optimism.Window); got != vtime.PosInf {
		t.Errorf("worker 0's limit while worker 1 idles: %v, want +inf", got)
	}
	d.release()
	<-done
}

// TestCouplingHeldWorkerParks: a held worker parks with its front still
// published and the least peer front it waits for announced, counts the
// round, and the peer's publish of that front wakes it at once, not after the
// idle tick (a minute here), as does a peer's +inf. Worker 1 runs alone, held by a front of 0 that
// worker 0, which never starts, has published; a distance of 10 lets it run
// its relays to 10 before they hold it.
func TestCouplingHeldWorkerParks(t *testing.T) {
	m := twoGroupModel(func(i int) *relayObject {
		return &relayObject{first: 1 + vtime.Time(i%2), delay: 2, stop: 20}
	})
	cfg := DefaultConfig(1000)
	cfg.Workers = 2
	cfg.Optimism.Window = 640
	cfg.GVTPeriod = 4 * time.Minute
	d := newKernel(m, &cfg, comm.Peers{Local: comm.BlockRanks(m.NumLPs(), 1, 0)}, inProc(m, &cfg), nil)
	d.workers[0].publish(0)
	w := d.workers[1]
	done := make(chan struct{})
	go func() {
		w.run()
		close(done)
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within 10 s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitFor("worker 1 parks", func() bool { return w.waiting.Load() && d.fronts[1].need.Load() != int64(vtime.PosInf) })
	front, need := vtime.Time(d.fronts[1].t.Load()), vtime.Time(d.fronts[1].need.Load())
	if front != 11 || need != 1 {
		t.Errorf("parked with front %v and need %v published, want 11 and 1", front, need)
	}
	reg := telemetry.NewRegistry()
	d.publishMetrics(newRunMetrics(reg, m.NumLPs()))
	if got := reg.Counter("gowarp_worker_held_rounds_total", "", true).Get(1); got < 1 || got != float64(w.heldN.Load()) {
		t.Errorf("gowarp_worker_held_rounds_total{worker=1} reads %v, held rounds %d", got, w.heldN.Load())
	}
	d.workers[0].publish(need) // lets it run its event at 11, and then holds it again
	waitFor("worker 1 runs on to 11", func() bool { return d.fronts[1].t.Load() > 11 })
	d.workers[0].publish(vtime.PosInf) // as worker 0 does before it idles
	waitFor("worker 1 runs its relays out", func() bool { return d.fronts[1].t.Load() == int64(vtime.PosInf) })
	if got := vtime.Time(d.fronts[1].need.Load()); got != vtime.PosInf {
		t.Errorf("worker 1 idles with need %v announced, want +inf", got)
	}
	d.release()
	<-done
}

// TestCoupledWorkersCounts: phold-pool's shape, scaled down (1,024 sparse
// objects on 16 LPs, locality 0.9, a static window of 100, end 600), at two
// workers. Unequal cores used to let one worker's LPs drift far ahead of the
// other's: uncoupled, this shape read 83–183 rollbacks per 1,000 committed
// events and a mean LVT width of 22–28, and the runs at the commit before
// workers kept their cores read medians of 13.0 and 7.9 on the full shape.
// Coupled, the medians of a few runs must stay under those two. Such a run
// does not replay, so the bounds are on medians, far from what coupled runs
// read (under one rollback per 1,000, a width near the coupling distance).
func TestCoupledWorkersCounts(t *testing.T) {
	const runs = 3
	mk := func() *model.Model {
		return phold.New(phold.Config{
			Objects: 1024, TokensPerObject: 1, MeanDelay: 10,
			Locality: 0.9, LPs: 16, Seed: 7, Sparse: true,
		})
	}
	var perK, widths []float64
	for i := 0; i < runs; i++ {
		cfg := DefaultConfig(600)
		cfg.Workers = 2
		cfg.Optimism.Window = 100
		res, err := Run(mk(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var held int64
		for _, ws := range res.PerWorker {
			held += ws.HeldRounds
		}
		k := 1000 * float64(res.Stats.Rollbacks) / float64(res.Stats.EventsCommitted)
		perK = append(perK, k)
		widths = append(widths, res.Roughness.MeanWidth)
		t.Logf("run %d: %d committed, %.2f rollbacks per 1,000, mean width %.1f, held rounds %d, adoptions %d",
			i, res.Stats.EventsCommitted, k, res.Roughness.MeanWidth, held, res.PerWorker[0].Adoptions+res.PerWorker[1].Adoptions)
	}
	median := func(v []float64) float64 { slices.Sort(v); return v[len(v)/2] }
	k, w := median(perK), median(widths)
	t.Logf("medians: %.2f rollbacks per 1,000 committed, mean width %.1f", k, w)
	if k > 13.0 {
		t.Errorf("median %.2f rollbacks per 1,000 committed events, bound 13.0", k)
	}
	if w > 7.9 {
		t.Errorf("median mean LVT width %.1f, bound 7.9", w)
	}
}

// rankWire is the transport of rank 0 of a two-rank run whose rank 1 is
// absent: a send to one of rank 0's LPs reaches the sink, and what is sent to
// rank 1's is kept for the test to read.
type rankWire struct {
	numLPs int
	sink   func(int, comm.Packet)

	mu   sync.Mutex
	away []comm.Packet // sent to rank 1, each with its destination in Count
}

func (w *rankWire) Peers() comm.Peers {
	return comm.Peers{NumLPs: w.numLPs, Local: comm.BlockRanks(w.numLPs, 2, 0), NumRanks: 2}
}
func (w *rankWire) SetSink(s func(int, comm.Packet), _ func()) { w.sink = s }
func (w *rankWire) Recv(int) <-chan comm.Packet                { return nil }
func (w *rankWire) Poll()                                      {}
func (w *rankWire) Flush(bool)                                 {}
func (w *rankWire) Arm()                                       {}
func (w *rankWire) Start() error                               { return nil }
func (w *rankWire) Close() error                               { return nil }

func (w *rankWire) Send(dst int, p comm.Packet, _ int) {
	if comm.RankOf(dst, w.numLPs, 2) == 0 {
		w.sink(dst, p)
		return
	}
	p.Count = dst
	w.mu.Lock()
	w.away = append(w.away, p)
	w.mu.Unlock()
}

// fronts returns the fronts rank 0 has sent rank 1 so far.
func (w *rankWire) fronts(t *testing.T) []vtime.Time {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	var fs []vtime.Time
	for _, p := range w.away {
		if p.Kind != comm.PktNull {
			continue
		}
		if p.From != 0 || p.Count != 2 {
			t.Errorf("a front from rank %d sent to LP %d, want rank 0's to LP 2, rank 1's first", p.From, p.Count)
		}
		fs = append(fs, p.Bound)
	}
	return fs
}

// TestCouplingRemoteFront: a front another rank sends is folded into the
// least front the worker is coupled to (peerFront); a worker runs
// w/couplingDivisor past it, then parks with its own front published — and
// sent to the other rank — and the least front it waits for announced; a
// delivered front that reaches that need wakes it at once, not after the idle
// tick (a minute here), and +inf releases it. Rank 0 of two runs alone, one
// worker on LPs 0 and 1, whose relays pass their tokens between them; rank
// 1, which would host LPs 2 and 3, is absent.
func TestCouplingRemoteFront(t *testing.T) {
	const inf = vtime.PosInf
	m := twoGroupModel(func(i int) *relayObject { return &relayObject{first: 1, delay: 1, stop: inf} })
	cfg := DefaultConfig(1000)
	cfg.Workers = 1
	cfg.Optimism.Window = 640 // a distance of 10, a horizon of 640
	cfg.GVTPeriod = 4 * time.Minute
	wire := &rankWire{numLPs: m.NumLPs()}
	d := newKernel(m, &cfg, wire.Peers(), wire, nil)
	if got := d.peerFront(0); got != inf {
		t.Errorf("before rank 1 sent a front: %v, want +inf", got)
	}
	d.deliver(0, comm.Packet{Kind: comm.PktNull, From: 1, Bound: 40})
	if got := d.peerFront(0); got != 40 {
		t.Errorf("after rank 1's front of 40: %v", got)
	}
	if got := limitAt(d.peerFront(0), cfg.Optimism.Window); got != 50 {
		t.Errorf("limit %v, want 50", got)
	}
	d.deliver(1, comm.Packet{Kind: comm.PktNull, From: 1, Bound: 0})

	w := d.workers[0]
	done := make(chan struct{})
	go func() {
		w.run()
		close(done)
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within 10 s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	f := &d.fronts[0]
	waitFor("the worker parks", func() bool { return w.waiting.Load() && f.need.Load() != int64(inf) })
	front, need := vtime.Time(f.t.Load()), vtime.Time(f.need.Load())
	if front != 11 || need != 1 {
		t.Errorf("parked with front %v and need %v published, want 11 and 1", front, need)
	}
	if sent := wire.fronts(t); len(sent) == 0 || sent[len(sent)-1] != front {
		t.Errorf("fronts sent to rank 1: %v, the last of them not the worker's front %v", sent, front)
	} else if slices.Contains(sent, inf) || len(slices.Compact(slices.Clone(sent))) != len(sent) {
		t.Errorf("fronts sent to rank 1: %v, a front sent twice running", sent)
	}
	d.deliver(0, comm.Packet{Kind: comm.PktNull, From: 1, Bound: need}) // lets it run at 11, then holds it again
	waitFor("the worker runs on past 11", func() bool { return vtime.Time(f.t.Load()) > front })
	d.deliver(0, comm.Packet{Kind: comm.PktNull, From: 1, Bound: inf})
	waitFor("the worker runs to the horizon", func() bool { return vtime.Time(f.t.Load()) == inf })
	if got := vtime.Time(f.need.Load()); got != inf {
		t.Errorf("the worker idles with need %v announced, want +inf", got)
	}
	d.release()
	<-done
	if sent := wire.fronts(t); sent[len(sent)-1] != inf {
		t.Errorf("the last front sent to rank 1 is %v, want the +inf of an idle rank", sent[len(sent)-1])
	}
	for _, rank := range []int{0, 2, -1} {
		d.failed.Store(nil)
		d.deliver(0, comm.Packet{Kind: comm.PktNull, From: rank, Bound: 5})
		if f := d.failed.Load(); f == nil || !strings.Contains(f.msg, fmt.Sprintf("a front from rank %d,", rank)) {
			t.Errorf("a front from rank %d, which is not another rank of two: the run's failure is %v", rank, f)
		}
	}
}

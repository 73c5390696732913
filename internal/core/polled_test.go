package core_test

import (
	"bytes"
	"regexp"
	"sync"
	"testing"
	"time"

	"gowarp/internal/comm"
)

// dearWire is a comm.Polled transport for one process whose link is the
// dearest there could be: a packet sent through it stays put until somebody
// calls Flush(true) — the opportunistic Flush(false) of a worker's round
// always finds that it should wait — and it keeps a log of how the kernel
// drove it: P for Poll, f for Flush(false), F for Flush(true). What the kernel
// promises a transport that holds writes (comm.Polled) can then be read off a
// run: it polls every round whatever flushing costs, and it forces everything
// out before it waits and when it leaves, so that nothing held is ever waited
// for.
type dearWire struct {
	numLPs int
	sink   func(lp int, p comm.Packet)

	mu   sync.Mutex
	held []heldPacket
	log  []byte
}

type heldPacket struct {
	dst int
	p   comm.Packet
}

func (w *dearWire) Peers() comm.Peers {
	return comm.Peers{NumLPs: w.numLPs, Local: comm.BlockRanks(w.numLPs, 1, 0), NumRanks: 1}
}
func (w *dearWire) Start() error                     { return nil }
func (w *dearWire) Close() error                     { return nil }
func (w *dearWire) Recv(int) <-chan comm.Packet      { return nil }
func (w *dearWire) SetSink(s func(int, comm.Packet)) { w.sink = s }

func (w *dearWire) Send(dst int, p comm.Packet, _ int) {
	w.mu.Lock()
	w.held = append(w.held, heldPacket{dst, p})
	w.mu.Unlock()
}

func (w *dearWire) Poll() {
	w.mu.Lock()
	w.log = append(w.log, 'P')
	w.mu.Unlock()
}

func (w *dearWire) Flush(force bool) {
	w.mu.Lock()
	var out []heldPacket
	if force {
		w.log = append(w.log, 'F')
		out, w.held = w.held, nil
	} else {
		w.log = append(w.log, 'f')
	}
	w.mu.Unlock()
	for _, h := range out {
		w.sink(h.dst, h.p)
	}
}

// TestPolledFlushesBeforeItWaits runs a model whose every inter-LP message and
// GVT token has to cross dearWire, on one worker, with unbounded optimism: the
// worker executes all it has, runs dry with its own next events held in the
// transport, and has to get them out before it waits or sit out an idle tick
// for each — dozens of times in this run, against the two or three ticks an
// idle kernel really waits for (before the forced GVT computations that end
// the run). The run must finish with the sequential kernel's answer in far
// less than a tick per idle period, and the log must be rounds that each begin
// with a Poll and end either in the opportunistic flush (events ran) or in
// idle's two forced ones (before the wait, and after it for what the forced
// GVT sent), then the forced flush a worker leaves with.
func TestPolledFlushesBeforeItWaits(t *testing.T) {
	m := testModel(1)
	wire := &dearWire{numLPs: m.NumLPs()}
	cfg := testConfig(200)
	cfg.Optimism.Window = 0
	cfg.GVTPeriod = time.Second
	cfg.Workers = 1
	cfg.Transport = wire
	tick := cfg.GVTPeriod / 4
	start := time.Now()
	assertMatchesSequential(t, m, cfg)
	took := time.Since(start)
	if len(wire.held) != 0 {
		t.Errorf("%d packets were never flushed", len(wire.held))
	}
	if !regexp.MustCompile(`^(Pf|PFF)+F$`).Match(wire.log) {
		t.Errorf("the worker drove the transport out of turn (want rounds of Pf or PFF, then F): %.200s…", wire.log)
	}
	idles := bytes.Count(wire.log, []byte("PFF"))
	if idles < 20 {
		t.Fatalf("the worker ran dry %d times: too few to tell a flush before the wait from a tick", idles)
	}
	if took > time.Duration(idles)*tick/4 {
		t.Errorf("the run took %v for %d idle periods of a worker whose tick is %v: it waited with frames still held", took, idles, tick)
	}
}

// TestPolledHeldWritesMatchSequential: the same transport under every width —
// with several workers a packet held by one is another's next event — still
// commits what the sequential kernel does, at the test suite's usual period.
func TestPolledHeldWritesMatchSequential(t *testing.T) {
	for _, workers := range []int{0, 2, 4} {
		m := testModel(2)
		cfg := testConfig(1000)
		cfg.Workers = workers
		cfg.Transport = &dearWire{numLPs: m.NumLPs()}
		assertMatchesSequential(t, m, cfg)
	}
}

var _ comm.Polled = (*dearWire)(nil)

package core_test

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/apps/smmp"
	"gowarp/internal/audit"
	"gowarp/internal/comm"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// distribModel returns the SMMP instance both the in-process baseline and
// the two-rank fleet simulate; the committed results must be identical.
func distribModel(seed uint64) *model.Model {
	return smmp.New(smmp.Config{Requests: 20, Seed: seed})
}

// tcpFleet builds started-on-demand TCP transports for a numRanks fleet over
// loopback, listeners pre-bound on port 0 so every rank knows real addresses.
func tcpFleet(t testing.TB, numLPs, numRanks int) []comm.Transport {
	t.Helper()
	lns := make([]net.Listener, numRanks)
	addrs := make([]string, numRanks)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	trs := make([]comm.Transport, numRanks)
	for r := range trs {
		tr, err := comm.NewTCP(comm.TCPConfig{
			Rank: r, Addrs: addrs, NumLPs: numLPs,
			DialTimeout: 10 * time.Second, DrainTimeout: 10 * time.Second,
			Listener: lns[r],
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[r] = tr
	}
	return trs
}

// hidden wraps a transport the way the benchmark's tracing decorator does:
// embedding the interface keeps its five methods and hides whatever else the
// concrete type has, comm.Polled included. The kernel then forwards the
// transport's channels, and TCP runs its channel driver.
type hidden struct{ comm.Transport }

// TestDistributedTCPMatchesInProc is the transport tentpole's integration
// proof: one logical SMMP run split across two TCP-connected "processes"
// (in-test endpoints, each its own core.Run) must terminate through the GVT
// protocol, fossil-collect, and commit exactly what the single-process run
// commits — final states byte-identical under audit.HashStates — whatever
// the width of each rank's dispatcher (0 = the default: a worker per hosted LP
// up to the rank's share of the cores, two ranks to this machine; 1 and 2; a
// worker per LP), whoever drives the sockets (the workers, or reader and
// forwarder goroutines behind a wrapper that hides comm.Polled but passes
// Peers through, and so gets the same width), and once more with a single P
// for everything, where a rank's only worker is also the only one polling.
func TestDistributedTCPMatchesInProc(t *testing.T) {
	const seed = 7
	cfg := core.DefaultConfig(1 << 40) // run until the model drains
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.Optimism.Window = 2000

	solo, err := core.Run(distribModel(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	perLP := distribModel(seed).NumLPs()
	sweep := func(t *testing.T) {
		for _, workers := range []int{0, 1, 2, perLP} {
			for _, wrap := range []bool{false, true} {
				name := fmt.Sprintf("workers%d", workers)
				if wrap {
					name += "-hidden"
				}
				t.Run(name, func(t *testing.T) {
					cfg := cfg
					cfg.Workers = workers
					checkTCPFleet(t, seed, cfg, solo, wrap)
				})
			}
		}
	}
	sweep(t)
	t.Run("gomaxprocs1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		sweep(t)
	})
}

// defaultWidth is what Config.Workers == 0 means for a rank hosting n LPs when
// ranks of them share this machine, as the ranks of a loopback fleet do: a
// worker per LP up to the rank's share of the cores.
func defaultWidth(n, ranks int) int {
	return min(n, runtime.GOMAXPROCS(0), max(1, runtime.NumCPU()/ranks))
}

func checkTCPFleet(t *testing.T, seed uint64, cfg core.Config, solo *core.Result, wrap bool) {
	numLPs := distribModel(seed).NumLPs()
	trs := tcpFleet(t, numLPs, 2)
	if wrap {
		for r := range trs {
			trs[r] = hidden{trs[r]}
		}
	}
	results := runFleet(t, func() *model.Model { return distribModel(seed) }, cfg, trs...)
	dist := results[0]

	// GVT terminated the fleet: the final estimate strictly passed the end
	// time (here: drained to +inf), on both ranks.
	for r, res := range results {
		if !res.GVT.After(vtime.Time(0)) {
			t.Errorf("rank %d: GVT never advanced (%s)", r, res.GVT)
		}
	}
	if dist.GVT != vtime.PosInf {
		t.Errorf("coordinator GVT = %s, want +inf (drained)", dist.GVT)
	}

	// Fossil collection ran on both ranks, and each rank is a pool over the
	// LPs it hosts: the workers it asked for (the default width when it asked
	// for none), owning those LPs between them and no other.
	for r, res := range results {
		if res.Stats.FossilCollected == 0 {
			t.Errorf("rank %d: no fossils collected", r)
		}
		hosted := comm.BlockRanks(numLPs, 2, r)
		want := min(cfg.Workers, len(hosted))
		if want == 0 {
			want = defaultWidth(len(hosted), len(results))
		}
		owned := 0
		for _, w := range res.PerWorker {
			owned += w.OwnedLPs
		}
		if len(res.PerWorker) != want || owned != len(hosted) {
			t.Errorf("rank %d: %d workers owning %d LPs, want %d owning %d", r, len(res.PerWorker), owned, want, len(hosted))
		}
		for lp, w := range res.FinalWorkerAssignment {
			if local := lp >= hosted[0] && lp <= hosted[len(hosted)-1]; local != (w >= 0) {
				t.Errorf("rank %d: LP %d assigned to worker %d", r, lp, w)
			}
		}
	}

	// The committed computation is the same computation.
	if dist.Stats.EventsCommitted != solo.Stats.EventsCommitted {
		t.Errorf("committed: distributed %d, in-process %d",
			dist.Stats.EventsCommitted, solo.Stats.EventsCommitted)
	}
	if got, want := audit.HashStates(dist.FinalStates), audit.HashStates(solo.FinalStates); got != want {
		t.Errorf("final state hash: distributed %#x, in-process %#x", got, want)
	}
	for i := range solo.FinalStates {
		if !reflect.DeepEqual(dist.FinalStates[i], solo.FinalStates[i]) {
			t.Errorf("object %d final state differs", i)
		}
	}

	// The gathered per-LP tallies cover every LP, and the merged tally is
	// their sum (rank 1's counters folded in, not lost).
	var sum int64
	for lp, c := range dist.PerLP {
		if c.EventsProcessed == 0 {
			t.Errorf("coordinator has no counters for LP %d", lp)
		}
		sum += c.EventsCommitted
	}
	if sum != dist.Stats.EventsCommitted {
		t.Errorf("per-LP committed sums to %d, merged tally says %d", sum, dist.Stats.EventsCommitted)
	}
}

// TestDistributedGatesSharedStateFacets: configurations whose controllers
// live in process-shared state must be refused, with the in-process default
// untouched by the same configs.
func TestDistributedGatesSharedStateFacets(t *testing.T) {
	numLPs := distribModel(1).NumLPs()
	cases := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"balance", func(c *core.Config) { c.Balance = core.BalanceConfig{Mode: core.BalanceDynamic} }},
		{"optimism", func(c *core.Config) { c.Optimism = core.OptimismConfig{Mode: core.OptimismAdaptive} }},
		{"audit", func(c *core.Config) { c.Audit = audit.New() }},
	}
	for _, tc := range cases {
		trs := tcpFleet(t, numLPs, 2)
		cfg := core.DefaultConfig(1 << 20)
		cfg.Transport = trs[0]
		tc.mut(&cfg)
		if _, err := core.Run(distribModel(1), cfg); err == nil {
			t.Errorf("%s: distributed run accepted a process-shared facet", tc.name)
		}
		for _, tr := range trs {
			tr.Close()
		}
	}
}

// TestInProcTransportExplicit: passing the in-process transport explicitly
// is byte-for-byte the nil default.
func TestInProcTransportExplicit(t *testing.T) {
	cfg := core.DefaultConfig(1 << 40)
	cfg.GVTPeriod = 200 * time.Microsecond
	base, err := core.Run(distribModel(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = comm.NewInProc(distribModel(3).NumLPs(), comm.WithCost(cfg.Cost))
	expl, err := core.Run(distribModel(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if audit.HashStates(base.FinalStates) != audit.HashStates(expl.FinalStates) ||
		base.Stats.EventsCommitted != expl.Stats.EventsCommitted {
		t.Error("explicit InProc differs from the nil default")
	}
}

// TestHiddenPolledMatchesSequential: a transport wrapper that embeds
// comm.Transport hides comm.Polled, so the run takes the forwarder path — the
// one a user's own transport takes, and the one benchmark -trace 1 times. It
// must commit what the sequential kernel does, in process and over TCP.
func TestHiddenPolledMatchesSequential(t *testing.T) {
	const seed = 5
	cfg := core.DefaultConfig(1 << 40)
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.Optimism.Window = 2000
	seq, err := core.RunSequential(distribModel(seed), cfg.EndTime, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, res *core.Result) {
		t.Helper()
		if res.Stats.EventsCommitted != seq.EventsExecuted {
			t.Errorf("committed %d, sequential %d", res.Stats.EventsCommitted, seq.EventsExecuted)
		}
		if got, want := audit.HashStates(res.FinalStates), audit.HashStates(seq.FinalStates); got != want {
			t.Errorf("final state hash %#x, sequential %#x", got, want)
		}
	}
	t.Run("inproc", func(t *testing.T) {
		cfg := cfg
		cfg.Transport = hidden{comm.NewInProc(distribModel(seed).NumLPs())}
		res, err := core.Run(distribModel(seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, res)
	})
	t.Run("tcp", func(t *testing.T) {
		trs := tcpFleet(t, distribModel(seed).NumLPs(), 2)
		build := func() *model.Model { return distribModel(seed) }
		check(t, runFleet(t, build, cfg, hidden{trs[0]}, hidden{trs[1]})[0])
	})
}

// runFleet runs one core.Run per transport, concurrently, each on its own
// copy of the model, and returns the ranks' results; any rank's error fails
// the test.
func runFleet(t testing.TB, build func() *model.Model, cfg core.Config, trs ...comm.Transport) []*core.Result {
	t.Helper()
	results := make([]*core.Result, len(trs))
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for r, tr := range trs {
		wg.Add(1)
		go func(r int, tr comm.Transport) {
			defer wg.Done()
			rcfg := cfg
			rcfg.Transport = tr
			results[r], errs[r] = core.Run(build(), rcfg)
		}(r, tr)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results
}

// TestDistributedNullRunWakesIdleRanks: a null run over two TCP ranks whose
// idle tick is a second. Nothing executes before the end time, so the run is
// its hops: GVT's token into each rank and back, the stop, the report, the
// drains — each into a rank whose worker is waiting. A frame wakes the rank
// it reaches, through the doorbell its worker armed (or, behind the hidden
// wrapper, through the reader and forwarder that deliver it), so the run
// takes a fraction of one tick, where a rank that waited for its tick would
// take a second a hop.
func TestDistributedNullRunWakesIdleRanks(t *testing.T) {
	build := func() *model.Model {
		// Every event lies beyond 99: the first GVT computation ends the run.
		return phold.New(phold.Config{Objects: 64, TokensPerObject: 1, MinDelay: 100, LPs: 4, Seed: 7, Sparse: true})
	}
	cfg := core.DefaultConfig(1)
	cfg.GVTPeriod = 4 * time.Second
	const tick = time.Second // GVTPeriod / 4
	for _, wrap := range []bool{false, true} {
		t.Run(fmt.Sprintf("hidden=%v", wrap), func(t *testing.T) {
			trs := tcpFleet(t, build().NumLPs(), 2)
			if _, ok := trs[0].(comm.Polled); !ok {
				t.Skip("TCP is not Polled on this platform")
			}
			if wrap {
				trs[0], trs[1] = hidden{trs[0]}, hidden{trs[1]}
			}
			start := time.Now()
			res := runFleet(t, build, cfg, trs...)[0]
			if took := time.Since(start); took > tick/4 {
				t.Errorf("a null run of %d GVT computation(s) took %v with an idle tick of %v", res.Stats.GVTCycles, took, tick)
			}
		})
	}
}

// TestPolledRunStartsNoTransportGoroutines: over a comm.Polled transport the
// only goroutines a run puts on a core are its workers — no forwarder per LP
// in the kernel, no reader per peer in TCP; hide Polled and both are back.
// Beside them the polled path has a doorbell per inbound link at most, parked
// until a worker waits, and the doorbells read nothing: every byte a rank
// wrote, the other's polls read. Behind the wrapper there are none.
func TestPolledRunStartsNoTransportGoroutines(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		t.Run(fmt.Sprintf("hidden=%v", wrap), func(t *testing.T) {
			build := func() *model.Model { return smmp.New(smmp.Config{Requests: 400, Seed: 3}) }
			trs := tcpFleet(t, build().NumLPs(), 2)
			if _, ok := trs[0].(comm.Polled); !ok {
				t.Skip("TCP is not Polled on this platform")
			}
			if wrap {
				trs[0], trs[1] = hidden{trs[0]}, hidden{trs[1]}
			}
			cfg := core.DefaultConfig(1 << 40)
			cfg.GVTPeriod = 200 * time.Microsecond
			cfg.Optimism.Window = 2000

			// Sample every goroutine's stack while the fleet runs.
			var workers, forwarders, readers, bells int
			done := make(chan struct{})
			sampled := make(chan struct{})
			go func() {
				defer close(sampled)
				buf := make([]byte, 1<<20)
				for {
					select {
					case <-done:
						return
					default:
					}
					stacks := string(buf[:runtime.Stack(buf, true)])
					if n := strings.Count(stacks, "core.(*worker).run"); n > 0 {
						workers = max(workers, n)
						forwarders = max(forwarders, strings.Count(stacks, "core.(*dispatcher).forward"))
						readers = max(readers, strings.Count(stacks, "comm.(*TCP).readLoop"))
						bells = max(bells, strings.Count(stacks, "comm.(*doorbell).run"))
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
			results := runFleet(t, build, cfg, trs...)
			close(done)
			<-sampled
			if workers == 0 {
				t.Skip("the run ended before a sample saw its workers")
			}
			if wrap {
				if forwarders == 0 || readers == 0 || bells != 0 {
					t.Errorf("behind a wrapper: %d forwarders, %d readers and %d doorbells, want some of the first two and no doorbell", forwarders, readers, bells)
				}
				return
			}
			if forwarders != 0 || readers != 0 || bells > 2 {
				t.Errorf("over a polled transport: %d forwarders, %d readers and %d doorbells beside %d workers, want none, none and one per inbound link at most", forwarders, readers, bells, workers)
			}
			for r, res := range results {
				in, out := res.Wire[0], results[1-r].Wire[0]
				if in.Reads == 0 || in.BytesIn != out.BytesOut {
					t.Errorf("rank %d: %d bytes read in %d polled reads, its peer wrote %d", r, in.BytesIn, in.Reads, out.BytesOut)
				}
			}
		})
	}
}

// cutProxy relays TCP connections to one address until cut resets them all,
// which is what the two ends of a link see when the host between them dies.
type cutProxy struct {
	ln      net.Listener
	relayed atomic.Int64 // bytes carried so far
	mu      sync.Mutex
	conns   []*net.TCPConn
	dead    bool
}

// relay copies src to dst until either fails, then passes the end on.
func (p *cutProxy) relay(dst, src *net.TCPConn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		p.relayed.Add(int64(n))
		if _, werr := dst.Write(buf[:n]); err != nil || werr != nil {
			dst.CloseWrite()
			return
		}
	}
}

func newCutProxy(t *testing.T, target string) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			a, b := in.(*net.TCPConn), out.(*net.TCPConn)
			p.mu.Lock()
			if p.dead {
				a.Close()
				b.Close()
			} else {
				p.conns = append(p.conns, a, b)
				go p.relay(a, b)
				go p.relay(b, a)
			}
			p.mu.Unlock()
		}
	}()
	return p
}

func (p *cutProxy) cut() {
	p.ln.Close()
	p.mu.Lock()
	p.dead = true
	for _, c := range p.conns {
		c.SetLinger(0) // RST, not FIN
		c.Close()
	}
	p.mu.Unlock()
}

// TestDistributedLinkCutFailsEveryRank: when the link between two ranks dies
// mid-run, every rank's Run returns — promptly, not after the report timeout —
// with the transport's error, whoever drives the sockets.
func TestDistributedLinkCutFailsEveryRank(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		t.Run(fmt.Sprintf("hidden=%v", wrap), func(t *testing.T) {
			build := func() *model.Model { return smmp.New(smmp.Config{Requests: 200_000, Seed: 9}) }
			numLPs := build().NumLPs()
			lns := make([]net.Listener, 2)
			proxies := make([]*cutProxy, 2)
			for r := range lns {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				lns[r] = ln
				proxies[r] = newCutProxy(t, ln.Addr().String())
			}
			trs := make([]comm.Transport, 2)
			for r := range trs {
				// Each rank listens on its own socket and reaches its peer
				// through the peer's proxy.
				addrs := []string{proxies[0].ln.Addr().String(), proxies[1].ln.Addr().String()}
				tr, err := comm.NewTCP(comm.TCPConfig{
					Rank: r, Addrs: addrs, NumLPs: numLPs,
					DialTimeout: 10 * time.Second, DrainTimeout: 2 * time.Second,
					Listener: lns[r],
				})
				if err != nil {
					t.Fatal(err)
				}
				if trs[r] = tr; wrap {
					trs[r] = hidden{tr}
				}
			}
			cfg := core.DefaultConfig(1 << 40)
			cfg.GVTPeriod = 200 * time.Microsecond
			cfg.Optimism.Window = 2000

			errs := make([]error, 2)
			var wg sync.WaitGroup
			for r, tr := range trs {
				wg.Add(1)
				go func(r int, tr comm.Transport) {
					defer wg.Done()
					rcfg := cfg
					rcfg.Transport = tr
					_, errs[r] = core.Run(build(), rcfg)
				}(r, tr)
			}
			// Cut once both directions carry the simulation's traffic, far past
			// the handshake's few bytes; the run itself takes seconds.
			for wait := time.Now(); proxies[0].relayed.Load() < 64<<10 || proxies[1].relayed.Load() < 64<<10; {
				if time.Since(wait) > 20*time.Second {
					t.Fatal("the fleet never got going")
				}
				time.Sleep(time.Millisecond)
			}
			cutAt := time.Now()
			for _, p := range proxies {
				p.cut()
			}
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(20 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("a rank is still running 20 s after its link was cut\n%s", buf[:runtime.Stack(buf, true)])
			}
			t.Logf("every rank returned %v after the cut", time.Since(cutAt).Round(time.Millisecond))
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "core: transport: comm: tcp rank") {
					t.Errorf("rank %d returned %v, want the transport's error", r, err)
				}
			}
		})
	}
}

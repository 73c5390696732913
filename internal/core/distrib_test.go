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
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/telemetry"
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
// embedding the interface promotes every method of the contract, the sink's
// included, and hides whatever else the concrete type has (TCP's Links). The
// kernel drives it as it drives the transport inside.
type hidden struct{ comm.Transport }

// TestDistributedTCPMatchesInProc is the transport tentpole's integration
// proof: one logical SMMP run split across two TCP-connected "processes"
// (in-test endpoints, each its own core.Run) must terminate through the GVT
// protocol, fossil-collect, and commit exactly what the single-process run
// commits — final states byte-identical under audit.HashStates — whatever
// the width of each rank's dispatcher (0 = the default: a worker per hosted LP
// up to the rank's share of the cores, two ranks to this machine; 1 and 2; a
// worker per LP), whether or not a wrapper hides the concrete transport (it
// passes Peers through, and so gets the same width), and once more with a
// single P for everything, where a rank's only worker is also the only one
// polling.
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

// TestDistributedTracerBindsHostedLPs: each rank of a two-rank fleet traces
// into its own tracer, which holds a ring for each LP the rank hosts and none
// for the other rank's, whose events it would never see.
func TestDistributedTracerBindsHostedLPs(t *testing.T) {
	const seed = 7
	numLPs := distribModel(seed).NumLPs()
	cfg := core.DefaultConfig(1 << 40)
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.Optimism.Window = 2000
	trs := tcpFleet(t, numLPs, 2)
	tracers := []*telemetry.Tracer{telemetry.NewTracer(1 << 10), telemetry.NewTracer(1 << 10)}
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rcfg := cfg
			rcfg.Transport, rcfg.Tracer = trs[r], tracers[r]
			_, errs[r] = core.Run(distribModel(seed), rcfg)
		}(r)
	}
	wg.Wait()
	for r, tr := range tracers {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		hosted := map[int]bool{}
		for _, lp := range comm.BlockRanks(numLPs, 2, r) {
			hosted[lp] = true
		}
		for lp := 0; lp < numLPs; lp++ {
			if got := tr.LP(lp) != nil; got != hosted[lp] {
				t.Errorf("rank %d: LP %d has a ring %v, hosted %v", r, lp, got, hosted[lp])
			}
		}
	}
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

// TestDistributedGatesSharedStateFacets: the facets that cannot span ranks
// must be refused: dynamic balance (capsules and the routing table are
// process-shared), adaptive optimism (its window rides the GVT broadcast,
// but its controller observes only the progress records of the LPs in its
// own process) and the auditor (its ledger is global).
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
// comm.Transport — the shape benchmark -trace 1 times — hides the concrete
// type, yet the workers poll it through the sink like the transport inside.
// It must commit what the sequential kernel does, in process and over TCP.
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
	results, errs := fleet(build, cfg, trs...)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results
}

// fleet is runFleet for a caller off the test's goroutine: it returns each
// rank's result and error.
func fleet(build func() *model.Model, cfg core.Config, trs ...comm.Transport) ([]*core.Result, []error) {
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
	return results, errs
}

// TestDistributedNullRunWakesIdleRanks: a null run over two TCP ranks whose
// idle tick is a second. Nothing executes before the end time, so the run is
// its hops: GVT's token into each rank and back, the final GVT, the report, the
// drains — each into a rank whose worker is waiting. A frame wakes the rank
// it reaches, through the doorbell its worker armed (behind the hidden
// wrapper too, which passes Arm through), so the run takes a
// fraction of one tick, where a rank that waited for its tick would take a
// second a hop.
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

// dropReport is a rank's transport that loses the rank's end-of-run report
// and delivers everything else, then half-closes as the rank ends.
type dropReport struct{ comm.Transport }

func (d dropReport) Send(dst int, p comm.Packet, payloadBytes int) {
	if p.Kind != comm.PktReport {
		d.Transport.Send(dst, p, payloadBytes)
	}
}

// TestDistributedReportLostToHalfClose: rank 1 of a two-rank null run ends
// well but its report never leaves, and its link half-closes behind it. A
// report travels ahead of its rank's half-close on the same stream, so rank 0
// knows from the ended link that the report is not coming: its Run must fail
// naming rank 1 at once, not wait out reportTimeout. Rank 1 is still draining
// its link then, and hears rank 0's stop on it: its Run fails too, for the
// report it lost.
func TestDistributedReportLostToHalfClose(t *testing.T) {
	build := func() *model.Model {
		return phold.New(phold.Config{Objects: 64, TokensPerObject: 1, MinDelay: 100, LPs: 4, Seed: 7, Sparse: true})
	}
	cfg := core.DefaultConfig(1)
	cfg.GVTPeriod = 200 * time.Microsecond
	trs := tcpFleet(t, build().NumLPs(), 2)
	trs[1] = dropReport{trs[1]}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	start := time.Now()
	for r, tr := range trs {
		wg.Add(1)
		go func(r int, tr comm.Transport) {
			defer wg.Done()
			rcfg := cfg
			rcfg.Transport = tr
			_, errs[r] = core.Run(build(), rcfg)
		}(r, tr)
	}
	wg.Wait()
	took := time.Since(start)
	for r, want := range []string{
		"core: rank 0: rank 1 closed its link before it reported",
		"core: rank 1 failed: closed its link before it reported",
	} {
		if errs[r] == nil || errs[r].Error() != want {
			t.Errorf("rank %d returned %v, want %q", r, errs[r], want)
		}
	}
	if took > 5*time.Second {
		t.Errorf("the fleet took %v to end", took)
	}
}

// TestPolledRunStartsNoTransportGoroutines: whatever the transport — none
// (Run's own InProc), an explicit InProc, TCP, or a wrapper that embeds one the
// way benchmark -trace 1 does — the only goroutines a run puts on a core are
// its workers: no forwarder per LP in the kernel, no reader per peer in TCP.
// Beside them TCP has a doorbell per inbound link at most, parked until a
// worker waits, and the doorbells read nothing: every byte a rank wrote, the
// other's polls read.
func TestPolledRunStartsNoTransportGoroutines(t *testing.T) {
	build := func() *model.Model { return smmp.New(smmp.Config{Requests: 400, Seed: 3}) }
	n := build().NumLPs()
	for _, wrap := range []bool{false, true} {
		t.Run(fmt.Sprintf("hidden=%v", wrap), func(t *testing.T) {
			for _, row := range []struct {
				name  string
				fleet func() []comm.Transport
				bells int // at most: one per inbound link
			}{
				{"nil", func() []comm.Transport { return []comm.Transport{nil} }, 0},
				{"inproc", func() []comm.Transport { return []comm.Transport{comm.NewInProc(n)} }, 0},
				{"tcp", func() []comm.Transport { return tcpFleet(t, n, 2) }, 2},
			} {
				if wrap && row.name == "nil" {
					continue // nothing to wrap
				}
				t.Run(row.name, func(t *testing.T) {
					census(t, build, row.fleet(), wrap, row.bells)
				})
			}
		})
	}
}

// census runs a fleet over trs, each behind the hidden wrapper if wrap, and
// samples every goroutine's stack while it runs: beside the workers there
// must be no forwarder, no reader and at most maxBells doorbells. Unwrapped, a
// TCP fleet's doorbells must also have read nothing.
func census(t *testing.T, build func() *model.Model, trs []comm.Transport, wrap bool, maxBells int) {
	if wrap {
		for r := range trs {
			trs[r] = hidden{trs[r]}
		}
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
	if forwarders != 0 || readers != 0 || bells > maxBells {
		t.Errorf("%d forwarders, %d readers and %d doorbells beside %d workers, want none, none and at most %d", forwarders, readers, bells, workers, maxBells)
	}
	if wrap || len(results) < 2 {
		return // no link tally: in process, or hidden by the wrapper
	}
	for r, res := range results {
		in, out := res.Wire[0], results[1-r].Wire[0]
		if in.Reads == 0 || in.BytesIn != out.BytesOut {
			t.Errorf("rank %d: %d bytes read in %d polled reads, its peer wrote %d", r, in.BytesIn, in.Reads, out.BytesOut)
		}
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

// relay copies src to dst until either fails, then passes the end on —
// unless the proxy has been cut: a cut resets both ends, and a half-close
// passed on first would show one end a clean end of stream instead.
func (p *cutProxy) relay(dst, src *net.TCPConn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		p.relayed.Add(int64(n))
		if _, werr := dst.Write(buf[:n]); err != nil || werr != nil {
			p.mu.Lock()
			if !p.dead {
				dst.CloseWrite()
			}
			p.mu.Unlock()
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

func (p *cutProxy) cut() { cutAll(p) }

// cutAll cuts every proxy in ps at once: none passes a half-close on once
// any of their connections has been reset.
func cutAll(ps ...*cutProxy) {
	for _, p := range ps {
		p.mu.Lock()
		p.dead = true
	}
	for _, p := range ps {
		p.ln.Close()
		for _, c := range p.conns {
			c.SetLinger(0) // RST, not FIN
			c.Close()
		}
	}
	for _, p := range ps {
		p.mu.Unlock()
	}
}

// TestDistributedLinkCutFailsEveryRank: when the link between two ranks dies
// mid-run, every rank's Run returns — promptly, not after the report timeout —
// with the transport's error, whether or not a wrapper hides the concrete
// transport.
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

// panicAt is a model object that panics at its nth execution, counted across
// rollbacks, and notes when in at if that is set.
type panicAt struct {
	model.Object
	n    int64
	runs atomic.Int64
	at   *atomic.Int64
}

func (p *panicAt) Execute(ctx model.Context, st model.State, ev *event.Event) {
	if p.runs.Add(1) == p.n {
		if p.at != nil {
			p.at.Store(time.Now().UnixNano())
		}
		panic("boom")
	}
	p.Object.Execute(ctx, st, ev)
}

// TestDistributedPeerPanicFailsEveryRank: an object panics mid-run, on rank
// 0 (object 0, on LP 0) or on rank 1 (object 15, on LP 3). Its rank fails
// with the panic. The other rank gets its stop, and must fail too, naming the
// rank that failed and the object that panicked — not return a partial Result
// as if the run had ended, nor wait out the report timeout.
func TestDistributedPeerPanicFailsEveryRank(t *testing.T) {
	for _, c := range []struct{ object, lp, rank int }{{0, 0, 0}, {15, 3, 1}} {
		t.Run(fmt.Sprintf("rank%d", c.rank), func(t *testing.T) {
			build := func() *model.Model {
				m := phold.New(phold.Config{Objects: 16, TokensPerObject: 2, MeanDelay: 10, Locality: 0.5, LPs: 4, Seed: 5})
				m.Objects[c.object] = &panicAt{Object: m.Objects[c.object], n: 2000}
				return m
			}
			if build().Partition[c.object] != c.lp {
				t.Fatalf("object %d is not on LP %d", c.object, c.lp)
			}
			trs := tcpFleet(t, build().NumLPs(), 2)
			cfg := core.DefaultConfig(1 << 40)
			cfg.GVTPeriod = 200 * time.Microsecond

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
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(20 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("a rank is still running 20 s after the panic\n%s", buf[:runtime.Stack(buf, true)])
			}
			failed := fmt.Sprintf("core: rank %d failed: LP %d, object %d (", c.rank, c.lp, c.object)
			if err := errs[c.rank]; err == nil || !strings.HasPrefix(err.Error(), failed) || !strings.Contains(err.Error(), "panic: boom") {
				t.Errorf("rank %d returned %v, want the panic", c.rank, err)
			}
			other := 1 - c.rank
			if err := errs[other]; err == nil || !strings.HasPrefix(err.Error(), failed) || !strings.HasSuffix(err.Error(), "panic: boom") {
				t.Errorf("rank %d returned %v, want an error naming rank %d, its object %d and the panic", other, err, c.rank, c.object)
			}
			t.Logf("rank %d: %v", other, errs[other])
		})
	}
}

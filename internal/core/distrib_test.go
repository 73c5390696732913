package core_test

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

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
func tcpFleet(t *testing.T, numLPs, numRanks int) []comm.Transport {
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

// TestDistributedTCPMatchesInProc is the transport tentpole's integration
// proof: one logical SMMP run split across two TCP-connected "processes"
// (in-test endpoints, each its own core.Run) must terminate through the GVT
// protocol, fossil-collect, and commit exactly what the single-process run
// commits — final states byte-identical under audit.HashStates — whatever
// the width of each rank's dispatcher (0 = a worker per hosted LP).
func TestDistributedTCPMatchesInProc(t *testing.T) {
	const seed = 7
	cfg := core.DefaultConfig(1 << 40) // run until the model drains
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.OptimismWindow = 2000

	solo, err := core.Run(distribModel(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cfg := cfg
			cfg.Workers = workers
			checkTCPFleet(t, seed, cfg, solo)
		})
	}
}

func checkTCPFleet(t *testing.T, seed uint64, cfg core.Config, solo *core.Result) {
	numLPs := distribModel(seed).NumLPs()
	trs := tcpFleet(t, numLPs, 2)
	results := make([]*core.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r, tr := range trs {
		wg.Add(1)
		go func(r int, tr comm.Transport) {
			defer wg.Done()
			rcfg := cfg
			rcfg.Transport = tr
			results[r], errs[r] = core.Run(distribModel(seed), rcfg)
		}(r, tr)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
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
	// LPs it hosts: the workers it asked for (one per LP when it asked for
	// none), owning those LPs between them and no other.
	for r, res := range results {
		if res.Stats.FossilCollected == 0 {
			t.Errorf("rank %d: no fossils collected", r)
		}
		hosted := comm.BlockRanks(numLPs, 2, r)
		want := cfg.Workers
		if want == 0 || want > len(hosted) {
			want = len(hosted)
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
		{"tuner", func(c *core.Config) { c.Tuner = core.NewTuner() }},
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

package core

import (
	"runtime"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/audit"
	"gowarp/internal/comm"
	"gowarp/internal/model"
)

// TestDefaultWorkers: the width Config.Workers == 0 stands for is never zero,
// never above the hosted LPs or GOMAXPROCS, the same for a transport that does
// not know its placement (0) as for one alone on its machine (1), never wider
// with more ranks on the host, and one worker once the ranks outnumber the
// cores.
func TestDefaultWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, hosted := range []int{1, 8} {
			alone := defaultWorkers(hosted, 1)
			if got := defaultWorkers(hosted, 0); got != alone {
				t.Errorf("GOMAXPROCS %d, %d LPs: %d workers with placement unknown, %d alone on the host", procs, hosted, got, alone)
			}
			if want := min(hosted, procs, runtime.NumCPU()); alone != want {
				t.Errorf("GOMAXPROCS %d, %d LPs: %d workers alone on the host, want %d", procs, hosted, alone, want)
			}
			prev := alone
			for _, hostRanks := range []int{1, 2, 3, 16} {
				got := defaultWorkers(hosted, hostRanks)
				if got < 1 || got > hosted || got > procs || got > prev {
					t.Errorf("GOMAXPROCS %d, %d LPs, %d ranks on the host: %d workers (%d with fewer ranks)", procs, hosted, hostRanks, got, prev)
				}
				if hostRanks >= runtime.NumCPU() && got != 1 {
					t.Errorf("GOMAXPROCS %d, %d LPs, %d ranks on %d cores: %d workers, want 1", procs, hosted, hostRanks, runtime.NumCPU(), got)
				}
				prev = got
			}
		}
	}
}

// TestYieldsBetweenRounds: a worker yields its P after every round only where
// something else in this process always needs one — more workers than Ps, or
// a transport's own reader goroutines. Other ranks on the host do not count:
// a yield cannot hand them a core.
func TestYieldsBetweenRounds(t *testing.T) {
	for _, tc := range []struct {
		name           string
		workers, procs int
		readers        bool
		want           bool
	}{
		{"a worker per P", 2, 2, false, false},
		{"one worker at two Ps, alone or one of two ranks on the host", 1, 2, false, false},
		{"Workers 4 on 2 Ps", 4, 2, false, true},
		{"a worker per LP, 16 LPs", 16, 2, false, true},
		{"one worker, TCP's reader driver", 1, 2, true, true},
	} {
		if got := yieldsBetweenRounds(tc.workers, tc.procs, tc.readers); got != tc.want {
			t.Errorf("%s: yieldsBetweenRounds(%d, %d, %v) = %v, want %v",
				tc.name, tc.workers, tc.procs, tc.readers, got, tc.want)
		}
	}
}

// TestYieldingWorkersMatchSequential: four workers on one P take turns
// round by round and finish sparse PHOLD over 16 LPs well inside the bound,
// committing exactly the sequential kernel's computation; so does the default
// width at two Ps, whose workers yield only while one waits for a P. Workers
// on one P that did not yield would take turns only at the scheduler's 10 ms
// preemption: each runs far ahead of the others, and the run has more
// rollbacks than committed events (23–28 per committed event and 2.5–3 s,
// against 0.14 and 25 ms when they yield). The two-P leg has no rollback
// bound: with another process busy on one of the host's cores its rollbacks
// can reach the committed count.
func TestYieldingWorkersMatchSequential(t *testing.T) {
	const bound = 20 * time.Second // the run takes under a second, also under -race
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	mk := func() *model.Model {
		return phold.New(phold.Config{
			Objects: 128, TokensPerObject: 1, MeanDelay: 10,
			Locality: 0.5, LPs: 16, Seed: 11, Sparse: true,
		})
	}
	const end = 1500
	seq, err := RunSequential(mk(), end, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		procs, workers int
		yield          bool
	}{{"Workers 4 at GOMAXPROCS 1", 1, 4, true}, {"default width at GOMAXPROCS 2", 2, 0, false}} {
		runtime.GOMAXPROCS(tc.procs)
		cfg := DefaultConfig(end)
		cfg.Workers = tc.workers
		probe := mk()
		if d := newKernel(probe, &cfg, comm.Peers{Local: comm.BlockRanks(probe.NumLPs(), 1, 0)}, inProc(probe, &cfg), nil); d.yield != tc.yield {
			t.Errorf("%s: %d workers yield = %v, want %v", tc.name, len(d.workers), d.yield, tc.yield)
		}
		start := time.Now()
		res, err := Run(mk(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wall := time.Since(start)
		if wall > bound {
			t.Errorf("%s: run took %v, bound %v", tc.name, wall, bound)
		}
		if tc.yield && res.Stats.Rollbacks > res.Stats.EventsCommitted {
			t.Errorf("%s: %d rollbacks for %d committed events: the workers do not take turns", tc.name, res.Stats.Rollbacks, res.Stats.EventsCommitted)
		}
		t.Logf("%s: %v, %d committed, %d rollbacks", tc.name, wall, res.Stats.EventsCommitted, res.Stats.Rollbacks)
		if res.Stats.EventsCommitted != seq.EventsExecuted {
			t.Errorf("%s: committed %d, sequential %d", tc.name, res.Stats.EventsCommitted, seq.EventsExecuted)
		}
		if got, want := res.Record().FinalStateHash, audit.HashStates(seq.FinalStates); got != want {
			t.Errorf("%s: state hash %#x, sequential %#x", tc.name, got, want)
		}
	}
}

// TestYieldWhileAWorkerWantsP: the poke that ends a worker's wait counts it
// as waiting for a P, a second poke does not count it again, and after a run
// of two workers that wait and wake and yield, no worker is left counted.
func TestYieldWhileAWorkerWantsP(t *testing.T) {
	cfg := DefaultConfig(100)
	d := newDispatcher(2, 2, &cfg)
	w := d.workers[1]
	w.waiting.Store(true)
	w.poke()
	w.poke()
	if got := d.wantP.Load(); got != 1 || w.waiting.Load() {
		t.Errorf("after two pokes of a waiting worker: wantP %d, waiting %v; want 1, false", got, w.waiting.Load())
	}

	m := phold.New(phold.Config{Objects: 64, TokensPerObject: 1, MeanDelay: 10, Locality: 0.5, LPs: 4, Seed: 7, Sparse: true})
	cfg = DefaultConfig(2000)
	cfg.Workers = 2
	cfg.GVTPeriod = 200 * time.Microsecond
	d = newKernel(m, &cfg, comm.Peers{Local: comm.BlockRanks(m.NumLPs(), 1, 0)}, inProc(m, &cfg), nil)
	runWorkers(d)
	if got := d.wantP.Load(); got != 0 {
		t.Errorf("after the run: wantP %d, want 0", got)
	}
}

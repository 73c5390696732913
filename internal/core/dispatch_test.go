package core_test

import (
	"reflect"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/apps/smmp"
	"gowarp/internal/comm"
	"gowarp/internal/core"
)

// The dispatcher must commit exactly the computation the sequential reference
// executes, for worker counts below, at, and above the LP count (0 = one per
// LP up to the cores, what every test that leaves Workers alone runs on).

func TestWorkerPoolMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(string(rune('0'+workers)), func(t *testing.T) {
			cfg := testConfig(2000)
			cfg.Workers = workers
			assertMatchesSequential(t, testModel(1), cfg)
		})
	}
}

func TestWorkerPoolMatchesSequentialSMMP(t *testing.T) {
	cfg := testConfig(1 << 40)
	cfg.Optimism.Window = 2000
	cfg.Workers = 3
	assertMatchesSequential(t, smmp.New(smmp.Config{Requests: 40, Seed: 5}), cfg)
}

func TestWorkerPoolWithMigration(t *testing.T) {
	m := testModel(3)
	// Deliberately bad placement: LP 0 hosts nearly everything; the dynamic
	// balancer migrates objects while the dispatcher re-maps LPs to workers.
	for i := range m.Partition {
		if i >= 4 {
			m.Partition[i] = 0
		}
	}
	cfg := testConfig(2400)
	cfg.Workers = 2
	cfg.Balance = core.BalanceConfig{
		Mode: core.BalanceDynamic, Period: 2,
		HighWater: 1.15, LowWater: 1.05, MaxMoves: 2, MinSample: 32,
	}
	assertMatchesSequential(t, m, cfg)
}

func TestWorkerPoolAdaptiveOptimism(t *testing.T) {
	cfg := testConfig(2000)
	cfg.Workers = 2
	cfg.Optimism = core.OptimismConfig{
		Mode: core.OptimismAdaptive, Window: 500, Min: 50, Max: 4000,
		Period: 1, HighWater: 0.3, LowWater: 0.1, MinSample: 16,
	}
	assertMatchesSequential(t, testModel(9), cfg)
}

func TestWorkerPoolReport(t *testing.T) {
	cfg := testConfig(2000)
	cfg.Workers = 2
	res, err := core.Run(testModel(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorker) != 2 {
		t.Fatalf("PerWorker = %d entries, want 2", len(res.PerWorker))
	}
	var events int64
	owned := 0
	for _, w := range res.PerWorker {
		events += w.Events
		owned += w.OwnedLPs
	}
	if events != res.Stats.EventsProcessed {
		t.Errorf("worker events %d != processed %d", events, res.Stats.EventsProcessed)
	}
	if owned != 4 {
		t.Errorf("owned LPs sum = %d, want 4", owned)
	}
	if len(res.FinalWorkerAssignment) != 4 {
		t.Fatalf("FinalWorkerAssignment = %v, want 4 entries", res.FinalWorkerAssignment)
	}
	for lp, w := range res.FinalWorkerAssignment {
		if w < 0 || w >= 2 {
			t.Errorf("LP %d assigned to worker %d", lp, w)
		}
	}
	// Event pools are per-worker: the merged tally carries them, the per-LP
	// counters stay zero.
	if res.Stats.EventPoolAllocs == 0 {
		t.Error("merged EventPoolAllocs = 0, want > 0")
	}
	for i, lp := range res.PerLP {
		if lp.EventPoolAllocs != 0 {
			t.Errorf("PerLP[%d].EventPoolAllocs = %d, want 0", i, lp.EventPoolAllocs)
		}
	}
}

// Worker counts above the LP count clamp: the run must behave as numLPs
// workers, not spin empty goroutines. And with a worker per LP there is
// nothing to balance: every worker ends the run owning the LP it started with.
func TestWorkerPoolClampsToLPs(t *testing.T) {
	cfg := testConfig(1500)
	cfg.GVTPeriod = 50 * time.Microsecond // many GVT cycles => many remap scans
	cfg.Workers = 64
	res, err := core.Run(testModel(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorker) != 4 {
		t.Fatalf("PerWorker = %d entries, want clamp to 4 LPs", len(res.PerWorker))
	}
	for _, w := range res.PerWorker {
		if w.OwnedLPs != 1 || w.Adoptions != 0 {
			t.Errorf("worker %d ends owning %d LPs after %d adoptions, want 1 and 0", w.Worker, w.OwnedLPs, w.Adoptions)
		}
	}
}

// Any worker count runs over any transport: an explicit in-process transport
// under two workers commits what the sequential kernel does. Only a negative
// count is refused.
func TestWorkerPoolExplicitTransport(t *testing.T) {
	m := testModel(1)
	cfg := testConfig(1000)
	cfg.Workers = 2
	cfg.Transport = comm.NewInProc(m.NumLPs())
	assertMatchesSequential(t, m, cfg)

	cfg = testConfig(1000)
	cfg.Workers = -1
	if _, err := core.Run(m, cfg); err == nil {
		t.Fatal("negative Workers: want error, got nil")
	}
}

// A larger model on few workers exercises the remap controller and the
// spillbox under load. Skewed (a third of all hops target object 0, so LP 0's
// worker carries far more than a third of the load) the hot LP's worker must
// shed its cold peers; uniform, the block sharding is already balanced and no
// LP may move — LPT on noisy equal loads would otherwise regroup them at
// every scan.
func TestWorkerPoolSkewedRemap(t *testing.T) {
	if testing.Short() {
		t.Skip("skewed remap run skipped in -short mode")
	}
	for _, tc := range []struct {
		name    string
		hotSpot float64
	}{{"uniform", 0}, {"hot", 0.3}} {
		t.Run(tc.name, func(t *testing.T) {
			m := phold.New(phold.Config{
				Objects: 96, TokensPerObject: 2, MeanDelay: 10,
				Locality: 0.5, LPs: 12, Seed: 4, Sparse: true, HotSpot: tc.hotSpot,
			})
			cfg := testConfig(3000)
			cfg.GVTPeriod = time.Millisecond // a scan then sees thousands of commits, not hundreds
			cfg.Workers = 3
			res := assertMatchesSequential(t, m, cfg)
			var adoptions int64
			for _, w := range res.PerWorker {
				adoptions += w.Adoptions
			}
			if shed := adoptions > 0; shed != (tc.hotSpot > 0) {
				t.Errorf("%d adoptions, final assignment %v", adoptions, res.FinalWorkerAssignment)
			}
		})
	}
}

// Repeated pool runs with the same seed must commit the same computation
// (the committed artifact is schedule-independent).
func TestWorkerPoolDeterministicArtifact(t *testing.T) {
	run := func() *core.Result {
		cfg := testConfig(2000)
		cfg.Workers = 2
		res, err := core.Run(testModel(6), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats.EventsCommitted != b.Stats.EventsCommitted {
		t.Errorf("committed: %d vs %d", a.Stats.EventsCommitted, b.Stats.EventsCommitted)
	}
	if !reflect.DeepEqual(a.FinalStates, b.FinalStates) {
		t.Error("final states differ across identical pool runs")
	}
}

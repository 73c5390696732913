package core_test

import (
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/core"
	"gowarp/internal/statesave"
)

// TestStatsInvariants runs a contentious configuration with the full runtime
// auditor enabled and checks the arithmetic relationships the counters must
// satisfy (audit.StatsViolations holds the canonical list).
func TestStatsInvariants(t *testing.T) {
	cfg := testConfig(3000)
	cfg.Cancellation = cancel.Config{Mode: cancel.Dynamic, FilterDepth: 8, Period: 2}
	cfg.Checkpoint = statesave.Config{Mode: statesave.Dynamic, Interval: 2, Period: 64}
	au := audit.New()
	cfg.Audit = au
	res, err := core.Run(testModel(13), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range audit.StatsViolations(&res.Stats) {
		t.Error(v.String())
	}
	if err := au.Err(); err != nil {
		t.Errorf("runtime audit: %v", err)
	}
	// Shape checks beyond counter arithmetic: the run must actually have
	// exercised the machinery the counters describe.
	if res.Stats.GVTCycles == 0 {
		t.Error("no GVT cycles completed")
	}
	if au.Checks() == 0 {
		t.Error("auditor performed no checks")
	}
}

// TestFossilCollectionReclaims checks that history is actually reclaimed
// while the simulation runs, not just at the end — the memory-boundedness
// GVT exists for.
func TestFossilCollectionReclaims(t *testing.T) {
	cfg := testConfig(20_000)
	cfg.GVTPeriod = 300 * time.Microsecond
	res, err := core.Run(testModel(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FossilCollected == 0 {
		t.Fatal("nothing fossil-collected over a long run")
	}
	// Reclamation must be the same order of magnitude as history creation.
	if res.Stats.FossilCollected < res.Stats.EventsCommitted/2 {
		t.Errorf("fossils %d lag far behind committed %d",
			res.Stats.FossilCollected, res.Stats.EventsCommitted)
	}
}

// TestAntiMessageStragglers verifies both rollback triggers occur and are
// handled under aggressive cancellation with remote traffic.
func TestAntiMessageStragglers(t *testing.T) {
	cfg := testConfig(4000)
	cfg.Optimism.Window = 300 // enough slack for cancellation cascades
	m := phold.New(phold.Config{
		Objects: 16, TokensPerObject: 4, MeanDelay: 8, Locality: 0.1, LPs: 4, Seed: 17,
	})
	res, err := core.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stragglers == 0 {
		t.Skip("run produced no positive stragglers; nothing to check")
	}
	if res.Stats.AntiMsgsSent > 0 && res.Stats.AntiStragglers == 0 {
		t.Log("anti-messages never arrived in an object's past this run (allowed)")
	}
	// Regardless of the mix, the result must still be exact.
	seq, err := core.RunSequential(m, cfg.EndTime, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("committed %d vs sequential %d", res.Stats.EventsCommitted, seq.EventsExecuted)
	}
}

// TestManyLPs scales the LP count past the host's core count.
func TestManyLPs(t *testing.T) {
	m := phold.New(phold.Config{
		Objects: 64, TokensPerObject: 2, MeanDelay: 12, Locality: 0.4, LPs: 8, Seed: 23,
	})
	cfg := testConfig(1000)
	assertMatchesSequential(t, m, cfg)
}

// TestRepeatedRunsAreReproducible: the committed results are a pure function
// of (model, end time), independent of scheduling and configuration.
func TestRepeatedRunsAreReproducible(t *testing.T) {
	cfg := testConfig(1200)
	var committed int64
	for i := 0; i < 3; i++ {
		res, err := core.Run(testModel(29), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			committed = res.Stats.EventsCommitted
		} else if res.Stats.EventsCommitted != committed {
			t.Fatalf("run %d committed %d, run 0 committed %d",
				i, res.Stats.EventsCommitted, committed)
		}
	}
}

// TestZeroDelaySelfSend: events scheduled at the sender's current time for
// another object are legal (zero lookahead) and must stay deterministic.
func TestCheckpointIntervalExtremes(t *testing.T) {
	for _, interval := range []int{1, 1000} {
		cfg := testConfig(800)
		cfg.Checkpoint = statesave.Config{Mode: statesave.Periodic, Interval: interval}
		assertMatchesSequential(t, testModel(31), cfg)
	}
}

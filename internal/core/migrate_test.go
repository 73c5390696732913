package core_test

import (
	"reflect"
	"testing"
	"time"

	"gowarp/internal/apps/smmp"
	"gowarp/internal/audit"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// skewPartition rewrites part so LP 0 hosts almost everything: each LP above
// zero keeps exactly one of its objects (the partition must stay dense), and
// every other object moves to LP 0 — the deliberately bad initial placement
// the load balancer exists to fix.
func skewPartition(part []int, lps int) {
	keep := make(map[int]int)
	for i, p := range part {
		keep[p] = i
	}
	for i := range part {
		part[i] = 0
	}
	for p := 1; p < lps; p++ {
		if i, ok := keep[p]; ok {
			part[i] = p
		}
	}
}

// balanceConfig returns a run configuration with an aggressive balancing
// controller: short period, tight dead zone, two moves per firing, and a
// stretched wall-clock profile (per-event CPU burn, fast GVT) so the
// controller gets many firing opportunities within the run.
func balanceConfig(end vtime.Time) core.Config {
	cfg := testConfig(end)
	cfg.GVTPeriod = 100 * time.Microsecond
	cfg.EventCost = 500 * time.Nanosecond
	cfg.Balance = core.BalanceConfig{
		Mode:      core.BalanceDynamic,
		Period:    2,
		HighWater: 1.10,
		LowWater:  1.05,
		MaxMoves:  2,
		MinSample: 8,
	}
	return cfg
}

// runBalanced mirrors assertMatchesSequential but returns the parallel
// result so callers can assert on migration counters and final placement.
func runBalanced(t *testing.T, m *model.Model, cfg core.Config) *core.Result {
	t.Helper()
	seq, err := core.RunSequential(m, cfg.EndTime, 0)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	au := audit.New()
	cfg.Audit = au
	par, err := core.Run(m, cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if err := au.Err(); err != nil {
		t.Errorf("runtime audit: %v", err)
	}
	if par.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("committed events: parallel %d, sequential %d",
			par.Stats.EventsCommitted, seq.EventsExecuted)
	}
	for i := range seq.FinalStates {
		if !reflect.DeepEqual(par.FinalStates[i], seq.FinalStates[i]) {
			t.Errorf("object %d: final states differ\nparallel:   %+v\nsequential: %+v",
				i, par.FinalStates[i], seq.FinalStates[i])
			break
		}
	}
	return par
}

// TestMigrationFixesBadPartition is the issue's integration scenario: a
// deliberately imbalanced PHOLD run (13 of 16 objects on LP 0) with the
// balancer on must migrate objects off the hot LP, commit exactly the
// sequential event set, reach identical final states, and pass the full
// runtime invariant audit — including the migration manifest checks.
func TestMigrationFixesBadPartition(t *testing.T) {
	m := testModel(7)
	skewPartition(m.Partition, 4)
	res := runBalanced(t, m, balanceConfig(20000))

	if res.Stats.Migrations == 0 {
		t.Error("balancer migrated nothing off a 13-vs-1 object skew")
	}
	if res.Stats.BalanceSteps == 0 {
		t.Error("controller never actuated")
	}
	if len(res.FinalPartition) != len(m.Partition) {
		t.Fatalf("FinalPartition has %d entries, want %d", len(res.FinalPartition), len(m.Partition))
	}
	onZero := 0
	for _, p := range res.FinalPartition {
		if p == 0 {
			onZero++
		}
	}
	if onZero >= 13 {
		t.Errorf("LP 0 still hosts %d of %d objects after balancing", onZero, len(m.Partition))
	}
}

// TestMigrationSMMP runs the same scenario on the shared-memory
// multiprocessor model, whose request/reply traffic shape differs from
// PHOLD's token passing.
func TestMigrationSMMP(t *testing.T) {
	m := smmp.New(smmp.Config{Processors: 8, LPs: 4, Seed: 11})
	skewPartition(m.Partition, 4)
	res := runBalanced(t, m, balanceConfig(1<<19))
	if res.Stats.Migrations == 0 {
		t.Error("balancer migrated nothing on the skewed SMMP run")
	}
}

// TestMigrationDisabledPreservesStaticPlacement pins the default path: with
// Balance off (the zero Config), no migration machinery runs and the final
// partition is the static one.
func TestMigrationDisabledPreservesStaticPlacement(t *testing.T) {
	m := testModel(3)
	static := append([]int(nil), m.Partition...)
	cfg := testConfig(2000)
	res := runBalanced(t, m, cfg)
	if res.Stats.Migrations != 0 || res.Stats.BalanceSteps != 0 || res.Stats.ForwardedMsgs != 0 {
		t.Errorf("disabled balancing still moved things: migrations %d, steps %d, forwards %d",
			res.Stats.Migrations, res.Stats.BalanceSteps, res.Stats.ForwardedMsgs)
	}
	for i, p := range res.FinalPartition {
		if p != static[i] {
			t.Errorf("FinalPartition[%d] = %d, want static %d", i, p, static[i])
		}
	}
}

// TestProbeGraphMeasuresTraffic checks the sequential probe used to seed
// communication-aware partitions: every object that executed has positive
// vertex weight and PHOLD's token traffic produces at least one edge.
func TestProbeGraphMeasuresTraffic(t *testing.T) {
	g, err := core.ProbeGraph(testModel(5), 2000, 2000)
	if err != nil {
		t.Fatalf("ProbeGraph: %v", err)
	}
	if g.Len() != 16 {
		t.Fatalf("graph over %d objects, want 16", g.Len())
	}
	edges := 0
	for a := 0; a < g.Len(); a++ {
		for b := a + 1; b < g.Len(); b++ {
			if g.EdgeWeight(a, b) > 0 {
				edges++
			}
		}
	}
	if edges == 0 {
		t.Error("probe measured no communication edges on a low-locality PHOLD")
	}
}

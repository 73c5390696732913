package gowarp_test

import (
	"reflect"
	"testing"
	"time"

	"gowarp"
)

// TestPublicAPIEndToEnd drives the library exactly as a downstream user
// would: construct a bundled model, configure all three adaptive facets,
// run, and validate against the sequential kernel.
func TestPublicAPIEndToEnd(t *testing.T) {
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects: 12, TokensPerObject: 2, MeanDelay: 15, Locality: 0.3, LPs: 3, Seed: 21,
	})
	cfg := gowarp.DefaultConfig(10_000)
	cfg.Optimism.Window = 300
	cfg.GVTPeriod = time.Millisecond
	cfg.Checkpoint = gowarp.CheckpointConfig{Mode: gowarp.DynamicCheckpointing, Interval: 2}
	cfg.Cancellation = gowarp.CancellationConfig{Mode: gowarp.DynamicCancellation}
	cfg.Aggregation = gowarp.AggregationConfig{Policy: gowarp.SAAW, Window: 50 * time.Microsecond}

	res, err := gowarp.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := gowarp.RunSequential(m, cfg.EndTime)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("committed %d vs sequential %d", res.Stats.EventsCommitted, seq.EventsExecuted)
	}
	for i := range seq.FinalStates {
		if !reflect.DeepEqual(res.FinalStates[i], seq.FinalStates[i]) {
			t.Errorf("object %d final state differs", i)
			break
		}
	}
}

func TestBundledModelsValidate(t *testing.T) {
	for _, m := range []*gowarp.Model{
		gowarp.NewSMMP(gowarp.SMMPConfig{}),
		gowarp.NewRAID(gowarp.RAIDConfig{}),
		gowarp.NewPHOLD(gowarp.PHOLDConfig{}),
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestDefaultConfigIsAllStaticBaseline(t *testing.T) {
	cfg := gowarp.DefaultConfig(100)
	if cfg.Checkpoint.Mode != gowarp.PeriodicCheckpointing {
		t.Error("default checkpointing must be periodic")
	}
	if cfg.Cancellation.Mode != gowarp.AggressiveCancellation {
		t.Error("default cancellation must be aggressive")
	}
	if cfg.Aggregation.Policy != gowarp.NoAggregation {
		t.Error("default aggregation must be none")
	}
	if cfg.EndTime != 100 {
		t.Error("end time not propagated")
	}
}

func TestRandIsValueSemantics(t *testing.T) {
	r := gowarp.NewRand(5)
	r.Uint64()
	snapshot := r
	a, b := r.Uint64(), snapshot.Uint64()
	if a != b {
		t.Error("Rand copies must replay the stream")
	}
}

func TestEndOfTime(t *testing.T) {
	if gowarp.VTime(1<<40) >= gowarp.EndOfTime {
		t.Error("EndOfTime must dominate finite horizons")
	}
}

// TestExtendedAPI drives the additional public surface: the conservative
// kernel, partitioning utilities, the extra bundled models, and timeline
// rendering.
func TestExtendedAPI(t *testing.T) {
	// Partitioning.
	g := gowarp.NewPartitionGraph(6)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 5)
	g.AddEdge(4, 5, 5)
	part := gowarp.GreedyPartition(g, 3)
	if len(part) != 6 {
		t.Fatalf("greedy partition len %d", len(part))
	}
	if len(gowarp.BlockPartition(6, 2)) != 6 || len(gowarp.RoundRobinPartition(6, 2)) != 6 {
		t.Fatal("partition helpers broken")
	}

	// Extra models validate and run on the sequential kernel.
	qn := gowarp.NewQNet(gowarp.QNetConfig{Stations: 6, Jobs: 6, LPs: 2, Seed: 2})
	if err := qn.Validate(); err != nil {
		t.Fatal(err)
	}
	lg := gowarp.NewLogicPipeline(4, 2, gowarp.LogicConfig{LPs: 2, Ticks: 20})
	if err := lg.Validate(); err != nil {
		t.Fatal(err)
	}
	lf := gowarp.NewLogic(gowarp.LFSRNetlist(4, []int{1, 3}, 10), gowarp.LogicConfig{LPs: 2, Ticks: 20})
	if err := lf.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := gowarp.RunSequential(qn, 2000); err != nil {
		t.Fatal(err)
	}

	// Conservative kernel agrees with the sequential kernel.
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{Objects: 8, TokensPerObject: 2, MeanDelay: 10, LPs: 2, Seed: 5})
	seq, err := gowarp.RunSequential(m, 1500)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := gowarp.RunConservative(m, gowarp.ConservativeConfig{EndTime: 1500, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cons.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("conservative committed %d vs sequential %d",
			cons.Stats.EventsCommitted, seq.EventsExecuted)
	}
}

package core_test

import (
	"testing"

	"gowarp/internal/apps/smmp"
	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/statesave"
	"gowarp/internal/stats"
)

// smmpFacets is the claims benchmark's smmp-facets shape at 1/div of its
// length: the paper's SMMP with 16 KiB states on 4 LPs, every on-line facet
// on, and a link that costs nothing (no CostModel, no EventCost).
func smmpFacets(seed uint64, div int, agg comm.Policy) (*model.Model, core.Config) {
	m := smmp.New(smmp.Config{Requests: 30_000 / div, StatePadding: 16 << 10, LPs: 4, Seed: seed})
	cfg := core.DefaultConfig(1 << 40)
	cfg.Optimism.Window = 2000
	cfg.Checkpoint = statesave.Config{Mode: statesave.Dynamic, Interval: 4}
	cfg.Cancellation = cancel.Config{Mode: cancel.Dynamic}
	cfg.Aggregation = comm.AggConfig{Policy: agg}
	cfg.Codec = codec.Config{Mode: codec.Delta}
	return m, cfg
}

// TestSAAWHoldsNothingOnAFreeLink is the kernel-level reading of SAAW's cost
// bound. Where a physical message costs its sender nothing, holding one back
// buys only receiver optimism that a straggler then undoes: SAAW must send
// nearly every event on its own (rate targeting alone packed 3.6 to a
// message here) and keep about the efficiency of the unaggregated run (it
// kept 0.56 of it). Three seeds are pooled so one unlucky interleaving does
// not decide the ratio.
func TestSAAWHoldsNothingOnAFreeLink(t *testing.T) {
	if testing.Short() {
		t.Skip("six kernel runs")
	}
	var saaw, none stats.Counters
	for _, seed := range []uint64{3, 7, 99} {
		for _, leg := range []struct {
			policy comm.Policy
			into   *stats.Counters
		}{{comm.SAAW, &saaw}, {comm.NoAggregation, &none}} {
			m, cfg := smmpFacets(seed, 10, leg.policy)
			res, err := core.Run(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			leg.into.Merge(&res.Stats)
		}
	}
	perMsg := float64(saaw.EventMsgsSent) / float64(saaw.PhysicalMsgsSent)
	t.Logf("events per physical message %.2f, efficiency %.3f (unaggregated %.3f)", perMsg, saaw.Efficiency(), none.Efficiency())
	if perMsg > 2 {
		t.Errorf("SAAW packed %.2f events per physical message on a free link, want <= 2", perMsg)
	}
	if saaw.Efficiency() < 0.8*none.Efficiency() {
		t.Errorf("SAAW efficiency %.3f is below 0.8 x the unaggregated run's %.3f", saaw.Efficiency(), none.Efficiency())
	}
}

// BenchmarkSMMPFreeLinkSAAW runs a tenth of smmp-facets per op and reports
// what held messages cost the receivers: rollbacks and rolled-back events per
// thousand committed, beside the events each physical message carried.
func BenchmarkSMMPFreeLinkSAAW(b *testing.B) {
	var st stats.Counters
	for i := 0; i < b.N; i++ {
		m, cfg := smmpFacets(7, 10, comm.SAAW)
		res, err := core.Run(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		st.Merge(&res.Stats)
	}
	kcommitted := float64(st.EventsCommitted) / 1000
	b.ReportMetric(float64(st.Rollbacks)/kcommitted, "rollbacks/kevent")
	b.ReportMetric(float64(st.EventsRolledBack)/kcommitted, "rolledback/kevent")
	b.ReportMetric(float64(st.EventMsgsSent)/float64(st.PhysicalMsgsSent), "ev/msg")
}

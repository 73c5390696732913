// Benchmarks regenerating the paper's evaluation (one benchmark family per
// table/figure; see DESIGN.md's per-experiment index) plus kernel-level
// micro-benchmarks.
//
// By default the figure benchmarks run the experiment harness in quick mode
// (~10x smaller workloads) so `go test -bench=.` finishes in minutes while
// preserving every comparison's shape. Set GOWARP_BENCH_FULL=1 to run the
// full-size workloads recorded in EXPERIMENTS.md (also available via
// `go run ./cmd/twbench -exp all`).
package gowarp_test

import (
	"os"
	"testing"
	"time"

	"gowarp"
	"gowarp/internal/exp"
)

func testbed() exp.Testbed {
	tb := exp.Default()
	tb.Quick = os.Getenv("GOWARP_BENCH_FULL") == ""
	return tb
}

// benchFigure runs a whole figure per iteration and logs the regenerated
// table once.
func benchFigure(b *testing.B, run func(exp.Testbed) (exp.Figure, error)) {
	b.Helper()
	tb := testbed()
	for i := 0; i < b.N; i++ {
		fig, err := run(tb)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + fig.Render())
		}
	}
}

// E1: Section 8 committed-event-rate scalars.
func BenchmarkBaselineRates(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.Rates() })
}

// E2: Figure 5 — dynamic check-pointing, RAID and SMMP.
func BenchmarkFig5DynamicCheckpointing(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.Fig5() })
}

// E3: Figure 6 — RAID cancellation strategies vs request count.
func BenchmarkFig6RAIDCancellation(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.Fig6() })
}

// E4: Figure 7 — SMMP cancellation strategies vs test vectors.
func BenchmarkFig7SMMPCancellation(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.Fig7() })
}

// E5: Figure 8 — SMMP DyMA aggregate-age sweep.
func BenchmarkFig8SMMPDyMA(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.Fig8() })
}

// E6: Figure 9 — RAID DyMA aggregate-age sweep.
func BenchmarkFig9RAIDDyMA(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.Fig9() })
}

// E2b: static checkpoint-interval sweep vs the dynamic controller.
func BenchmarkCheckpointSweep(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.CheckpointSweep() })
}

// A2: GVT period ablation.
func BenchmarkGVTPeriodAblation(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.GVTPeriodAblation() })
}

// A3: checkpoint-controller period ablation (control frequency vs overhead,
// the Section 3 trade-off).
func BenchmarkControlPeriodAblation(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.ControlPeriodAblation() })
}

// A4: RAID disk order-sensitivity ablation.
func BenchmarkDiskSensitivityAblation(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.DiskSensitivityAblation() })
}

// A5: Time Warp vs the conservative (CMB) baseline across lookahead.
func BenchmarkConservativeComparison(b *testing.B) {
	benchFigure(b, func(tb exp.Testbed) (exp.Figure, error) { return tb.ConservativeComparison() })
}

// Kernel micro-benchmarks: raw committed-event throughput with no synthetic
// costs, parallel vs sequential, reported as events/sec.
func BenchmarkKernelPHOLDParallel(b *testing.B) {
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects: 32, TokensPerObject: 4, MeanDelay: 20, Locality: 0.5, LPs: 4, Seed: 1,
	})
	cfg := gowarp.DefaultConfig(20_000)
	cfg.GVTPeriod = 5 * time.Millisecond
	cfg.Optimism.Window = 500
	b.ResetTimer()
	var committed int64
	for i := 0; i < b.N; i++ {
		res, err := gowarp.Run(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		committed += res.Stats.EventsCommitted
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkKernelPHOLDSequential(b *testing.B) {
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects: 32, TokensPerObject: 4, MeanDelay: 20, Locality: 0.5, LPs: 4, Seed: 1,
	})
	b.ResetTimer()
	var executed int64
	for i := 0; i < b.N; i++ {
		res, err := gowarp.RunSequential(m, 20_000)
		if err != nil {
			b.Fatal(err)
		}
		executed += res.EventsExecuted
	}
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "events/s")
}

// Rollback-heavy regime: low locality, zero lookahead pressure.
func BenchmarkKernelRollbackStorm(b *testing.B) {
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects: 16, TokensPerObject: 3, MeanDelay: 10, Locality: 0.1, LPs: 4, Seed: 2,
	})
	cfg := gowarp.DefaultConfig(5_000)
	cfg.GVTPeriod = 2 * time.Millisecond
	cfg.Optimism.Window = 100
	b.ResetTimer()
	var rollbacks int64
	for i := 0; i < b.N; i++ {
		res, err := gowarp.Run(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rollbacks += res.Stats.Rollbacks
	}
	b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks/run")
}

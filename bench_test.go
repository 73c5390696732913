// Benchmarks regenerating the paper's evaluation (one sub-benchmark per
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

// BenchmarkFigures regenerates every figure of exp.Experiments, one
// sub-benchmark each (BenchmarkFigures/fig5, ...), a whole figure per
// iteration, and logs the regenerated table once.
func BenchmarkFigures(b *testing.B) {
	tb := exp.Default()
	tb.Quick = os.Getenv("GOWARP_BENCH_FULL") == ""
	for _, e := range exp.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig, err := e.Run(tb)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + fig.Render())
				}
			}
		})
	}
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

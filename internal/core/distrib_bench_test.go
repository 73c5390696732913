package core_test

import (
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/stats"
)

// pholdTCP2 is the model of the claims benchmark's phold-tcp2 workload: 4,096
// sparse PHOLD objects on 8 LPs, half of every object's messages leaving its
// LP.
func pholdTCP2() *model.Model {
	return phold.New(phold.Config{
		Objects: 4096, TokensPerObject: 1, MeanDelay: 10,
		Locality: 0.5, LPs: 8, Seed: 7, Sparse: true,
	})
}

// BenchmarkPholdTCP2 is phold-tcp2 beside the code: the workload's model and
// configuration at a tenth of its end time over two loopback ranks in this
// process, at the default width (this rank's share of the cores: one worker a
// rank on a 2-core host) and at two workers a rank, which is what the default
// was while each rank counted the machine as its own. One op is one run; it
// reports committed events per second, rollbacks per run, the rounds both
// ranks' workers were held per run — at either width a worker is coupled to
// the other rank's front as well as to its own rank's other workers
// (EXPERIMENTS.md "One front per fleet") — and the system calls both ranks
// made per thousand committed events — reads, the reads among them that
// found nothing, and writes — from the links' own tallies (Result.Wire).
// Oversubscribed, the two widths differ by what a scheduler does to four
// never-blocking workers on two cores (EXPERIMENTS.md, "A rank takes its
// share of the host"). The null case is the workload's setup_s:
// one run to virtual time 1 at the default width — listen, join, build the
// model on each rank, one GVT computation, the final GVT, the report, the drains —
// in ms/run. Its hops land on ranks whose workers are waiting (EXPERIMENTS.md,
// "A rank wakes when its peer writes").
func BenchmarkPholdTCP2(b *testing.B) {
	cfg := core.DefaultConfig(300)
	cfg.Optimism.Window = 100
	b.Run("null", func(b *testing.B) {
		cfg := cfg
		cfg.EndTime = 1
		numLPs := pholdTCP2().NumLPs()
		var took time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			runFleet(b, pholdTCP2, cfg, tcpFleet(b, numLPs, 2)...)
			took += time.Since(start)
		}
		b.ReportMetric(float64(took.Microseconds())/1e3/float64(b.N), "ms/run")
	})
	for _, width := range []struct {
		name    string
		workers int
	}{{"width=default", 0}, {"width=2-per-rank", 2}} {
		b.Run(width.name, func(b *testing.B) {
			cfg := cfg
			cfg.Workers = width.workers
			var wire stats.LinkStats
			var committed, rollbacks, held int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				results := runFleet(b, pholdTCP2, cfg, tcpFleet(b, pholdTCP2().NumLPs(), 2)...)
				committed += results[0].Stats.EventsCommitted
				rollbacks += results[0].Stats.Rollbacks
				elapsed += results[0].Elapsed
				for _, res := range results {
					for _, ws := range res.PerWorker {
						held += ws.HeldRounds
					}
					for _, l := range res.Wire {
						wire.Reads += l.Reads
						wire.EmptyReads += l.EmptyReads
						wire.Writes += l.Writes
					}
				}
			}
			perK := 1000 / float64(committed)
			b.ReportMetric(float64(committed)/elapsed.Seconds(), "events/s")
			b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks/op")
			b.ReportMetric(float64(held)/float64(b.N), "held-rounds/op")
			b.ReportMetric(float64(wire.Reads)*perK, "reads/kev")
			b.ReportMetric(float64(wire.EmptyReads)*perK, "empty-reads/kev")
			b.ReportMetric(float64(wire.Writes)*perK, "writes/kev")
		})
	}
}

// BenchmarkGVTRoundTCP times a GVT computation over two loopback ranks of four
// LPs each while they simulate — the token's sixteen hops, four of them
// across a socket, each waiting for a worker that is busy executing events.
// One op is one run of the benchmark's phold-tcp2 shape at a fraction of its
// length; us/gvt is the mean initiation-to-completion time of the run's GVT
// computations and gvt/run how many it fitted in, with the period short
// enough that the next starts as soon as the last ends.
func BenchmarkGVTRoundTCP(b *testing.B) {
	build := pholdTCP2
	cfg := core.DefaultConfig(300)
	cfg.GVTPeriod = 10 * time.Microsecond
	cfg.Optimism.Window = 100
	var cycles int64
	var spent time.Duration
	for i := 0; i < b.N; i++ {
		res := runFleet(b, build, cfg, tcpFleet(b, build().NumLPs(), 2)...)[0]
		cycles += res.Stats.GVTCycles
		spent += res.Stats.GVTTime
	}
	b.ReportMetric(float64(spent.Microseconds())/float64(cycles), "us/gvt")
	b.ReportMetric(float64(cycles)/float64(b.N), "gvt/run")
}

package core_test

import (
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/comm"
	"gowarp/internal/core"
	"gowarp/internal/model"
)

// BenchmarkGVTRoundTCP times a GVT computation over two loopback ranks of four
// LPs each while they simulate — the token's sixteen hops, four of them
// across a socket, each waiting for a worker that is busy executing events.
// One op is one run of the benchmark's phold-tcp2 shape at a fraction of its
// length; us/gvt is the mean initiation-to-completion time of the run's GVT
// computations and gvt/run how many it fitted in, with the period short
// enough that the next starts as soon as the last ends. "polled" is the
// kernel's own path over TCP; "hidden" wraps the transports as a tracing
// decorator would, which puts reader and forwarder goroutines back between
// the socket and the workers (EXPERIMENTS.md, "Who gets a core").
func BenchmarkGVTRoundTCP(b *testing.B) {
	build := func() *model.Model {
		return phold.New(phold.Config{
			Objects: 4096, TokensPerObject: 1, MeanDelay: 10,
			Locality: 0.5, LPs: 8, Seed: 7, Sparse: true,
		})
	}
	cfg := core.DefaultConfig(300)
	cfg.GVTPeriod = 10 * time.Microsecond
	cfg.OptimismWindow = 100
	for _, wrap := range []bool{false, true} {
		name := "polled"
		if wrap {
			name = "hidden"
		}
		b.Run(name, func(b *testing.B) {
			var cycles int64
			var spent time.Duration
			for i := 0; i < b.N; i++ {
				trs := tcpFleet(b, build().NumLPs(), 2)
				if wrap {
					trs[0], trs[1] = hidden{trs[0]}, hidden{trs[1]}
				}
				res := runFleet(b, build, cfg, trs...)[0]
				cycles += res.Stats.GVTCycles
				spent += res.Stats.GVTTime
			}
			b.ReportMetric(float64(spent.Microseconds())/float64(cycles), "us/gvt")
			b.ReportMetric(float64(cycles)/float64(b.N), "gvt/run")
		})
	}
}

var _ comm.Transport = hidden{}

// SMMP example: the paper's shared-memory multiprocessor application
// (Section 7) under three configurations — the all-static baseline, static
// lazy cancellation, and the fully adaptive kernel — on the simulated
// network-of-workstations testbed. It prints execution time, throughput and
// per-object adaptation outcomes, reproducing in miniature the comparisons
// of Figures 5 and 7.
//
// Run:
//
//	go run ./examples/smmp
package main

import (
	"fmt"
	"log"
	"time"

	"gowarp"
)

func run(label string, configure func(*gowarp.ConfigBuilder)) *gowarp.Result {
	// The paper's configuration: 16 processors on 4 LPs, 10ns cache,
	// 100ns memory, 90% hit ratio; 500 test vectors per processor here.
	m := gowarp.NewSMMP(gowarp.SMMPConfig{
		Requests:     500,
		StatePadding: 16 << 10, // make checkpoints cost something real
	})
	b := gowarp.NewConfig(gowarp.VTime(1)<<40).WithOptimism(gowarp.OptimismStatic, 2000)
	configure(b)
	cfg := b.Build()
	cfg.Cost = gowarp.CostModel{PerMessage: 80 * time.Microsecond, PerByte: 10 * time.Nanosecond}
	cfg.EventCost = 5 * time.Microsecond

	res, err := gowarp.Run(m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %8s  %9.0f ev/s  efficiency %.2f  rollbacks %d\n",
		label, res.Elapsed.Round(time.Millisecond), res.EventRate(),
		res.Stats.Efficiency(), res.Stats.Rollbacks)
	return res
}

func main() {
	fmt.Println("SMMP: 16 processors, 4 LPs, cache 10ns / memory 100ns, 90% hits")

	base := run("periodic + aggressive", func(b *gowarp.ConfigBuilder) {})
	run("periodic + lazy", func(b *gowarp.ConfigBuilder) {
		b.WithCancellation(gowarp.LazyCancellation)
	})
	fullyAdaptive := func(b *gowarp.ConfigBuilder) {
		b.WithCancellation(gowarp.DynamicCancellation).
			WithCheckpoint(gowarp.DynamicCheckpointing, 1).
			WithAggregation(gowarp.SAAW, 0)
	}
	adaptive := run("fully adaptive", fullyAdaptive)
	codec := run("adaptive + codec", func(b *gowarp.ConfigBuilder) {
		fullyAdaptive(b)
		b.WithCodec(gowarp.CodecDelta, gowarp.LZCompression)
	})

	speedup := base.Elapsed.Seconds() / adaptive.Elapsed.Seconds()
	fmt.Printf("\nadaptive vs all-static baseline: %.2fx\n", speedup)
	fmt.Printf("codec facet: %d checkpoint bytes stored vs %d raw (%.1fx smaller)\n\n",
		codec.Stats.CheckpointBytes, codec.Stats.CheckpointRawBytes,
		float64(codec.Stats.CheckpointRawBytes)/float64(codec.Stats.CheckpointBytes))

	// What did the controllers decide? The paper observes that every SMMP
	// object favors lazy cancellation; the checkpoint controller should
	// have opened the interval well past 1.
	gowarp.SortPerObject(adaptive.PerObject)
	fmt.Println("adaptation outcomes for objects that rolled back:")
	for _, po := range adaptive.PerObject {
		if po.Rollbacks == 0 {
			continue
		}
		fmt.Printf("  %-16s rollbacks %-5d hit-ratio %.2f -> %-10s checkpoint interval %d\n",
			po.Name, po.Rollbacks, po.HitRatio, po.FinalStrategy, po.FinalCheckpointInt)
	}
}

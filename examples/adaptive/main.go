// Adaptive example: the on-line configuration framework head to head with
// static settings, one facet at a time, on the PHOLD synthetic workload.
// For each facet it sweeps the static parameter, then runs the controller,
// showing the paper's core claim: the dynamically controlled configuration
// matches or beats the best static setting without knowing it in advance.
//
// Run:
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"time"

	"gowarp"
)

func model() *gowarp.Model {
	return gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects:         32,
		TokensPerObject: 4,
		MeanDelay:       20,
		Locality:        0.5,
		LPs:             4,
		Seed:            99,
		StatePadding:    16 << 10,
	})
}

func base() *gowarp.ConfigBuilder {
	return gowarp.NewConfig(60_000).
		WithCostModel(gowarp.CostModel{PerMessage: 60 * time.Microsecond, PerByte: 10 * time.Nanosecond}).
		WithEventCost(5*time.Microsecond).
		WithOptimism(gowarp.OptimismStatic, 1000)
}

func run(label string, cfg gowarp.Config) time.Duration {
	res, err := gowarp.Run(model(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-28s %8s   (%.0f ev/s, %d rollbacks)\n",
		label, res.Elapsed.Round(time.Millisecond), res.EventRate(), res.Stats.Rollbacks)
	return res.Elapsed
}

func main() {
	fmt.Println("facet 1: checkpoint interval (static sweep vs Section 4 controller)")
	best := time.Duration(1 << 62)
	for _, chi := range []int{1, 4, 16, 64} {
		cfg := base().WithCheckpoint(gowarp.PeriodicCheckpointing, chi).Build()
		if d := run(fmt.Sprintf("periodic chi=%d", chi), cfg); d < best {
			best = d
		}
	}
	dyn := run("dynamic (controller)", base().WithCheckpointConfig(gowarp.CheckpointConfig{
		Mode: gowarp.DynamicCheckpointing, Interval: 1,
		MinInterval: 1, MaxInterval: 64, Period: 256,
	}).Build())
	fmt.Printf("  -> dynamic within %.0f%% of the best static setting\n\n",
		100*(dyn.Seconds()/best.Seconds()-1))

	fmt.Println("facet 2: cancellation strategy (static vs Section 5 selector)")
	for _, mode := range []struct {
		label string
		cc    gowarp.CancellationConfig
	}{
		{"aggressive", gowarp.CancellationConfig{Mode: gowarp.AggressiveCancellation}},
		{"lazy", gowarp.CancellationConfig{Mode: gowarp.LazyCancellation}},
		{"dynamic (hit ratio)", gowarp.CancellationConfig{Mode: gowarp.DynamicCancellation}},
	} {
		run(mode.label, base().WithCancellationConfig(mode.cc).Build())
	}
	fmt.Println()

	fmt.Println("facet 3: message aggregation (static windows vs SAAW)")
	for _, w := range []time.Duration{10 * time.Microsecond, 300 * time.Microsecond, 10 * time.Millisecond} {
		run(fmt.Sprintf("FAW window=%s", w), base().WithAggregation(gowarp.FAW, w).Build())
	}
	run("SAAW (from a bad start)", base().WithAggregation(gowarp.SAAW, 10*time.Millisecond).Build())

	// Watch the controllers converge: record the adaptation timeline of a
	// fully adaptive run and print LP 0's trajectory.
	fmt.Println()
	fmt.Println("adaptation timeline (LP 0): checkpoint interval opens, objects settle,")
	fmt.Println("and the aggregation window converges from its bad 10ms start:")
	cfg := base().
		WithTimeline().
		WithCheckpointConfig(gowarp.CheckpointConfig{
			Mode: gowarp.DynamicCheckpointing, Interval: 1,
			MinInterval: 1, MaxInterval: 64, Period: 256,
		}).
		WithCancellation(gowarp.DynamicCancellation).
		WithAggregation(gowarp.SAAW, 10*time.Millisecond).
		Build()
	res, err := gowarp.Run(model(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(gowarp.RenderTimeline(res.Timeline[:1], 12))
}

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
	return gowarp.NewConfig(60_000).WithOptimism(gowarp.OptimismStatic, 1000)
}

// build adds what every run shares beside the builder's facets: the simulated
// network's cost and a CPU charge per event.
func build(b *gowarp.ConfigBuilder) gowarp.Config {
	cfg := b.Build()
	cfg.Cost = gowarp.CostModel{PerMessage: 60 * time.Microsecond, PerByte: 10 * time.Nanosecond}
	cfg.EventCost = 5 * time.Microsecond
	return cfg
}

func run(label string, b *gowarp.ConfigBuilder) time.Duration {
	res, err := gowarp.Run(model(), build(b))
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
		if d := run(fmt.Sprintf("periodic chi=%d", chi), base().WithCheckpoint(gowarp.PeriodicCheckpointing, chi)); d < best {
			best = d
		}
	}
	dyn := run("dynamic (controller)", base().WithCheckpoint(gowarp.DynamicCheckpointing, 1))
	fmt.Printf("  -> dynamic within %.0f%% of the best static setting\n\n",
		100*(dyn.Seconds()/best.Seconds()-1))

	fmt.Println("facet 2: cancellation strategy (static vs Section 5 selector)")
	for _, mode := range []struct {
		label string
		mode  gowarp.CancellationMode
	}{
		{"aggressive", gowarp.AggressiveCancellation},
		{"lazy", gowarp.LazyCancellation},
		{"dynamic (hit ratio)", gowarp.DynamicCancellation},
	} {
		run(mode.label, base().WithCancellation(mode.mode))
	}
	fmt.Println()

	fmt.Println("facet 3: message aggregation (static windows vs SAAW)")
	for _, w := range []time.Duration{10 * time.Microsecond, 300 * time.Microsecond, 10 * time.Millisecond} {
		run(fmt.Sprintf("FAW window=%s", w), base().WithAggregation(gowarp.FAW, w))
	}
	run("SAAW (from a bad start)", base().WithAggregation(gowarp.SAAW, 10*time.Millisecond))

	// Watch the controllers converge: trace the first quarter of a fully
	// adaptive run — where they leave their starting points, and short enough
	// that the trace rings keep every record — and print what LP 0's
	// controllers decided, each kind thinned to a dozen records.
	fmt.Println()
	fmt.Println("controller trace (LP 0): checkpoint interval opens, objects settle,")
	fmt.Println("and the aggregation window converges from its bad 10ms start:")
	tracer := gowarp.NewTracer(0)
	cfg := build(base().
		WithCheckpoint(gowarp.DynamicCheckpointing, 1).
		WithCancellation(gowarp.DynamicCancellation).
		WithAggregation(gowarp.SAAW, 10*time.Millisecond).
		WithTracer(tracer))
	cfg.EndTime /= 4
	if _, err := gowarp.Run(model(), cfg); err != nil {
		log.Fatal(err)
	}
	if n := tracer.Dropped(); n > 0 {
		fmt.Printf("  (the rings overwrote the %d oldest records)\n", n)
	}
	byKind := map[string][]gowarp.TraceEvent{}
	for _, ev := range tracer.Events() {
		if ev.LP == 0 {
			byKind[ev.Kind.String()] = append(byKind[ev.Kind.String()], ev)
		}
	}
	for _, k := range []string{"checkpoint_adjust", "strategy_switch", "window_adjust"} {
		evs := byKind[k]
		fmt.Printf("  %s: %d records\n", k, len(evs))
		step := max(1, (len(evs)+11)/12)
		for i := 0; i < len(evs); i += step {
			fmt.Printf("    %8s  %s\n", evs[i].Wall.Round(time.Millisecond), describe(evs[i]))
		}
	}
}

// describe renders one controller record: what moved, on which object (or
// toward which destination LP), and the observation that moved it.
func describe(ev gowarp.TraceEvent) string {
	switch ev.Kind.String() {
	case "checkpoint_adjust":
		return fmt.Sprintf("object %-3d chi %d -> %d (Ec %s)", ev.Object, ev.A, ev.B, ev.Dur)
	case "strategy_switch":
		to := "aggressive"
		if ev.A == 1 {
			to = "lazy"
		}
		return fmt.Sprintf("object %-3d -> %s at hit ratio %.3f", ev.Object, to, float64(ev.B)/1000)
	default:
		return fmt.Sprintf("to LP %d: window %s -> %s", ev.Object, time.Duration(ev.A), time.Duration(ev.B))
	}
}

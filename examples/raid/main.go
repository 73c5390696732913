// RAID example: the paper's disk-array application (Section 7) — 20 request
// sources striping over 8 disks through 4 forks on 4 LPs — used here to show
// the cancellation-strategy split the paper reports: disk objects favor lazy
// cancellation (their service is a pure function of each sub-request) while
// fork objects favor aggressive cancellation (their striping origin rotates
// per request, so rollbacks reroute everything downstream). Dynamic
// cancellation discovers the split per object at run time.
//
// Run:
//
//	go run ./examples/raid
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"gowarp"
)

func run(label string, cc gowarp.CancellationConfig) *gowarp.Result {
	m := gowarp.NewRAID(gowarp.RAIDConfig{
		RequestsPerSource: 400,
		StatePadding:      16 << 10,
	})
	cfg := gowarp.NewConfig(gowarp.VTime(1)<<40).WithOptimism(gowarp.OptimismStatic, 4000).Build()
	cfg.Cost = gowarp.CostModel{PerMessage: 80 * time.Microsecond, PerByte: 10 * time.Nanosecond}
	cfg.EventCost = 5 * time.Microsecond
	cfg.Cancellation = cc

	res, err := gowarp.Run(m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %8s  %9.0f ev/s  anti-messages %-6d hit ratio %.2f\n",
		label, res.Elapsed.Round(time.Millisecond), res.EventRate(),
		res.Stats.AntiMsgsSent, res.Stats.HitRatio())
	return res
}

func main() {
	fmt.Println("RAID: 20 sources -> 4 forks -> 8 disks, 4 LPs, 200 requests/source")

	run("aggressive", gowarp.CancellationConfig{Mode: gowarp.AggressiveCancellation})
	run("lazy", gowarp.CancellationConfig{Mode: gowarp.LazyCancellation})
	dyn := run("dynamic", gowarp.CancellationConfig{
		Mode:         gowarp.DynamicCancellation,
		FilterDepth:  16,
		A2LThreshold: 0.45,
		L2AThreshold: 0.2,
	})

	// Summarize what the per-object selectors decided, grouped by class.
	type tally struct{ lazy, aggressive, idle int }
	byClass := map[string]*tally{"source": {}, "fork": {}, "disk": {}}
	gowarp.SortPerObject(dyn.PerObject)
	for _, po := range dyn.PerObject {
		var class string
		switch {
		case strings.Contains(po.Name, ".fork."):
			class = "fork"
		case strings.Contains(po.Name, ".disk."):
			class = "disk"
		default:
			class = "source"
		}
		t := byClass[class]
		switch {
		case po.Rollbacks == 0:
			t.idle++
		case po.FinalStrategy == "lazy":
			t.lazy++
		default:
			t.aggressive++
		}
	}
	fmt.Println("\ndynamic cancellation outcomes by object class:")
	for _, class := range []string{"source", "fork", "disk"} {
		t := byClass[class]
		fmt.Printf("  %-8s lazy %-3d aggressive %-3d (no rollbacks: %d)\n",
			class, t.lazy, t.aggressive, t.idle)
	}
	fmt.Println("\nthe paper's observation: disks favor lazy, forks favor aggressive.")
}

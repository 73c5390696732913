// Conservative example: the same model on three kernels — optimistic Time
// Warp, the Chandy–Misra–Bryant null-message kernel, and the sequential
// reference — across a sweep of model lookahead. It shows the trade the
// paper's Section 2 frames: conservative execution is only as good as the
// model's lookahead (and pays for small lookahead in null-message floods),
// while Time Warp is lookahead-insensitive and pays in rollbacks instead.
// All three kernels must agree exactly on the committed results.
//
// Run:
//
//	go run ./examples/conservative
package main

import (
	"fmt"
	"log"
	"reflect"
	"time"

	"gowarp"
)

func main() {
	const end = gowarp.VTime(30_000)
	fmt.Println("PHOLD, 32 objects on 4 LPs; execution time by kernel and lookahead")
	fmt.Printf("%-10s %12s %12s %14s %12s\n", "lookahead", "TimeWarp", "CMB", "CMB nulls", "rollbacks")

	for _, la := range []int64{1, 5, 20} {
		m := gowarp.NewPHOLD(gowarp.PHOLDConfig{
			Objects:         32,
			TokensPerObject: 4,
			MeanDelay:       20,
			MinDelay:        la, // the lookahead the model guarantees
			Locality:        0.5,
			LPs:             4,
			Seed:            42,
		})

		cost := gowarp.CostModel{PerMessage: 40 * time.Microsecond}

		twCfg := gowarp.NewConfig(end).
			WithCostModel(cost).
			WithEventCost(3*time.Microsecond).
			WithOptimism(gowarp.OptimismStatic, 1000).
			WithCheckpoint(gowarp.PeriodicCheckpointing, 4).
			Build()
		tw, err := gowarp.Run(m, twCfg)
		if err != nil {
			log.Fatal(err)
		}

		cmb, err := gowarp.RunConservative(m, gowarp.ConservativeConfig{
			EndTime:   end,
			Lookahead: gowarp.VTime(la),
			Cost:      cost,
			EventCost: 3 * time.Microsecond,
		})
		if err != nil {
			log.Fatal(err)
		}

		seq, err := gowarp.RunSequential(m, end)
		if err != nil {
			log.Fatal(err)
		}
		if tw.Stats.EventsCommitted != seq.EventsExecuted ||
			cmb.Stats.EventsCommitted != seq.EventsExecuted {
			log.Fatalf("kernels disagree: tw=%d cmb=%d seq=%d",
				tw.Stats.EventsCommitted, cmb.Stats.EventsCommitted, seq.EventsExecuted)
		}
		for i := range seq.FinalStates {
			if !reflect.DeepEqual(tw.FinalStates[i], seq.FinalStates[i]) ||
				!reflect.DeepEqual(cmb.FinalStates[i], seq.FinalStates[i]) {
				log.Fatalf("final states diverge at object %d", i)
			}
		}

		fmt.Printf("%-10d %12s %12s %14d %12d\n",
			la, tw.Elapsed.Round(time.Millisecond), cmb.Elapsed.Round(time.Millisecond),
			cmb.NullMessages, tw.Stats.Rollbacks)
	}
	fmt.Println("\nall kernels agree on committed events and final states")
}

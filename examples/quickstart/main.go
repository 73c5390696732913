// Quickstart: define a simulation model from scratch and run it on the Time
// Warp kernel.
//
// The model is a small logistics network: warehouses pass parcels to random
// neighbours with exponentially distributed transit times. It demonstrates
// the three things every gowarp model provides — a saveable State (deep
// Clone, randomness embedded by value), an Object (Init seeds events,
// Execute handles them), and a Partition mapping objects onto logical
// processes — and validates the optimistic run against the sequential
// reference kernel.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"reflect"
	"time"

	"gowarp"
)

const (
	warehouses = 8
	parcels    = 3 // initial parcels per warehouse
	endTime    = gowarp.VTime(50_000)
)

// warehouseState is everything a warehouse mutates while executing events.
// The random generator lives inside the state *by value*, so the kernel's
// checkpoints snapshot the stream and rollbacks replay it exactly.
type warehouseState struct {
	Rng      gowarp.Rand
	Handled  int64
	Distance int64 // total virtual-time distance of parcels seen
}

// Clone implements gowarp.State. This state holds no reference types, so a
// shallow copy is a deep copy.
func (s *warehouseState) Clone() gowarp.State {
	c := *s
	return &c
}

// warehouse is a simulation object. Objects themselves are immutable at run
// time: all mutable data lives in the state.
type warehouse struct {
	name string
	id   int
}

func (w *warehouse) Name() string { return w.name }

func (w *warehouse) InitialState() gowarp.State {
	return &warehouseState{Rng: gowarp.NewRand(uint64(w.id) + 1)}
}

// Init seeds the event flow: each warehouse dispatches its initial parcels.
func (w *warehouse) Init(ctx gowarp.Context, st gowarp.State) {
	s := st.(*warehouseState)
	for i := 0; i < parcels; i++ {
		w.dispatch(ctx, s, 0)
	}
}

// Execute receives a parcel and forwards it to another warehouse.
func (w *warehouse) Execute(ctx gowarp.Context, st gowarp.State, ev *gowarp.Event) {
	s := st.(*warehouseState)
	s.Handled++
	s.Distance += int64(ev.RecvTime - ev.SendTime)
	w.dispatch(ctx, s, binary.LittleEndian.Uint64(ev.Payload)+1)
}

func (w *warehouse) dispatch(ctx gowarp.Context, s *warehouseState, hops uint64) {
	dest := gowarp.ObjectID(s.Rng.Intn(warehouses))
	transit := gowarp.VTime(s.Rng.Exp(40)) // mean 40 time units
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, hops)
	ctx.Send(dest, transit, 0, payload)
}

func main() {
	// Assemble the model: 8 warehouses block-partitioned onto 2 LPs.
	m := &gowarp.Model{Name: "logistics"}
	for i := 0; i < warehouses; i++ {
		m.Objects = append(m.Objects, &warehouse{name: fmt.Sprintf("wh.%d", i), id: i})
		m.Partition = append(m.Partition, i*2/warehouses)
	}

	// Configure the simulator facet by facet: the paper's all-static
	// baseline with the on-line controllers turned on. The synthetic
	// per-event CPU cost stands in for real model computation (see DESIGN.md
	// on the simulated testbed).
	cfg := gowarp.NewConfig(endTime).
		WithCheckpoint(gowarp.DynamicCheckpointing, 1).
		WithCancellation(gowarp.DynamicCancellation).
		WithAggregation(gowarp.SAAW, 0).
		WithOptimism(gowarp.OptimismStatic, 2000).
		Build()
	cfg.EventCost = 10 * time.Microsecond

	res, err := gowarp.Run(m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel: %d parcels handled in %s (%.0f events/s, efficiency %.2f)\n",
		res.Stats.EventsCommitted, res.Elapsed.Round(1e6), res.EventRate(),
		res.Stats.Efficiency())

	// The sequential kernel defines correct results; cross-check them.
	seq, err := gowarp.RunSequential(m, endTime)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential: %d parcels in %s\n", seq.EventsExecuted, seq.Elapsed.Round(1e6))
	if res.Stats.EventsCommitted != seq.EventsExecuted {
		log.Fatalf("MISMATCH: committed %d vs %d", res.Stats.EventsCommitted, seq.EventsExecuted)
	}
	for i := range seq.FinalStates {
		if !reflect.DeepEqual(res.FinalStates[i], seq.FinalStates[i]) {
			log.Fatalf("MISMATCH: object %d final state differs", i)
		}
	}
	fmt.Println("verification: parallel and sequential kernels agree exactly")
}

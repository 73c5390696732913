package gowarp_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"gowarp"
)

// The package example's model is a small logistics network: warehouses pass
// parcels to random neighbours with exponentially distributed transit times.
const (
	warehouses   = 8
	parcels      = 3 // initial parcels per warehouse
	logisticsEnd = gowarp.VTime(50_000)
)

// warehouseState is everything a warehouse mutates while executing events.
// The random generator lives inside the state by value, so the kernel's
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

// warehouse is a simulation object. Objects are immutable at run time: all
// mutable data lives in the state.
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
	for range parcels {
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

// Example defines a model from scratch and runs it on the Time Warp kernel.
// A model is three things: a saveable State (deep Clone, randomness embedded
// by value), an Object (Init seeds events, Execute handles them) and a
// Partition of the objects onto logical processes. The sequential kernel
// defines the correct result, and the optimistic run must reproduce it.
func Example() {
	// 8 warehouses block-partitioned onto 2 LPs.
	m := &gowarp.Model{Name: "logistics"}
	for i := range warehouses {
		m.Objects = append(m.Objects, &warehouse{name: fmt.Sprintf("wh.%d", i), id: i})
		m.Partition = append(m.Partition, i*2/warehouses)
	}

	// The on-line controllers on, facet by facet, under a static optimism
	// window. The per-event CPU charge, a field of the Config that Build
	// returns, stands in for real model computation.
	cfg := gowarp.NewConfig(logisticsEnd).
		WithCheckpoint(gowarp.DynamicCheckpointing, 1).
		WithCancellation(gowarp.DynamicCancellation).
		WithAggregation(gowarp.SAAW, 0).
		WithOptimism(gowarp.OptimismStatic, 2000).
		Build()
	cfg.EventCost = time.Microsecond

	res, err := gowarp.Run(m, cfg)
	if err != nil {
		panic(err)
	}
	seq, err := gowarp.RunSequential(m, logisticsEnd)
	if err != nil {
		panic(err)
	}
	fmt.Println("parallel:", res.Stats.EventsCommitted, "parcels handled")
	fmt.Println("sequential:", seq.EventsExecuted, "parcels handled")
	fmt.Println("final states match:", gowarp.HashStates(res.FinalStates) == gowarp.HashStates(seq.FinalStates))
	// Output:
	// parallel: 30414 parcels handled
	// sequential: 30414 parcels handled
	// final states match: true
}

// ExampleNewConfig is README's Quickstart: a bundled model under five
// on-line facets, checked against the sequential kernel.
// TestReadmeQuickstart holds README's block to this body.
func ExampleNewConfig() {
	// A bundled model: the paper's RAID array, 100 requests per source.
	m := gowarp.NewRAID(gowarp.RAIDConfig{RequestsPerSource: 100})

	// Five facets through the builder, a mode and its one parameter each:
	// checkpointing, cancellation, aggregation, codec, optimism. Unset
	// facets keep their static defaults. The sixth, load balance, and a
	// facet's full block are fields of the Config that Build returns. An
	// end time of 2^40 runs the model until it drains.
	cfg := gowarp.NewConfig(gowarp.VTime(1)<<40).
		WithCheckpoint(gowarp.DynamicCheckpointing, 1).
		WithCancellation(gowarp.DynamicCancellation).
		WithAggregation(gowarp.SAAW, 0).
		WithCodec(gowarp.CodecDynamic, gowarp.LZCompression).
		WithOptimism(gowarp.OptimismAdaptive, 0).
		Build()

	res, err := gowarp.Run(m, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Stats.EventsCommitted, "events committed")

	// The sequential kernel defines the correct result: the same events
	// committed, and the same final states.
	seq, err := gowarp.RunSequential(m, cfg.EndTime)
	if err != nil {
		panic(err)
	}
	if res.Stats.EventsCommitted == seq.EventsExecuted &&
		gowarp.HashStates(res.FinalStates) == gowarp.HashStates(seq.FinalStates) {
		fmt.Println("MATCH")
	} else {
		fmt.Println("MISMATCH")
	}
	// Output:
	// 18000 events committed
	// MATCH
}

// ExampleNewTracer watches one adaptive run two ways. A Tracer records the
// kernel's structured events (rollbacks, controller adjustments, GVT cycles)
// and writes them as JSONL or as a Chrome trace; a MetricsRegistry holds the
// progress and controller gauges each LP publishes at every GVT, which
// gowarp/metricshttp serves as /metrics while a run executes. How many
// records of each kind a run leaves depends on how its LPs interleave; what
// it commits does not.
func ExampleNewTracer() {
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects:         32,
		TokensPerObject: 4,
		MeanDelay:       20,
		Locality:        0.5,
		LPs:             4,
		Seed:            99,
	})
	tracer := gowarp.NewTracer(0)
	reg := gowarp.NewMetricsRegistry()
	cfg := gowarp.NewConfig(5_000).
		WithOptimism(gowarp.OptimismStatic, 1000).
		WithCheckpoint(gowarp.DynamicCheckpointing, 1).
		WithCancellation(gowarp.DynamicCancellation).
		WithAggregation(gowarp.SAAW, 10*time.Millisecond).
		WithCodec(gowarp.CodecDynamic, gowarp.LZCompression).
		WithTracer(tracer).
		Build()
	cfg.Metrics = reg

	res, err := gowarp.Run(m, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("committed:", res.Stats.EventsCommitted)

	// The trace in both formats: JSONL is one record per line, for grep and
	// jq; the Chrome file loads in chrome://tracing or ui.perfetto.dev.
	events := tracer.Events()
	var jsonl, chrome bytes.Buffer
	if err := tracer.WriteJSONL(&jsonl); err != nil {
		panic(err)
	}
	if err := tracer.WriteChrome(&chrome); err != nil {
		panic(err)
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind.String()] = true
	}
	fmt.Println("gvt records:", kinds["gvt"])
	fmt.Println("a JSONL line per record:", strings.Count(jsonl.String(), "\n") == len(events))
	fmt.Println("chrome trace is JSON:", json.Valid(chrome.Bytes()))

	// The registry as the run left it: LP 0's controller gauges, and the
	// committed-events counter, which sums over the LPs to the run's count.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		panic(err)
	}
	for _, name := range []string{
		"gowarp_mean_checkpoint_interval", "gowarp_lazy_objects",
		"gowarp_hit_ratio", "gowarp_aggregation_window_seconds",
	} {
		fmt.Printf("%s{lp=\"0\"}: %v\n", name, strings.Contains(prom.String(), name+`{lp="0"} `))
	}
	var committed float64
	for _, n := range reg.Snapshot()["gowarp_events_committed_total"].([]float64) {
		committed += n
	}
	fmt.Println("registry commits as many:", int64(committed) == res.Stats.EventsCommitted)
	// Output:
	// committed: 33120
	// gvt records: true
	// a JSONL line per record: true
	// chrome trace is JSON: true
	// gowarp_mean_checkpoint_interval{lp="0"}: true
	// gowarp_lazy_objects{lp="0"}: true
	// gowarp_hit_ratio{lp="0"}: true
	// gowarp_aggregation_window_seconds{lp="0"}: true
	// registry commits as many: true
}

// TestReadmeQuickstart holds README's Quickstart to the code go test runs:
// the body of the block's main is ExampleNewConfig's, line for line, leading
// whitespace aside.
func TestReadmeQuickstart(t *testing.T) {
	read := func(file string) string {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	// between is the text of s after from and before the next to, each
	// line's leading whitespace trimmed.
	between := func(s, from, to string) string {
		_, rest, ok := strings.Cut(s, from)
		rest, _, ok2 := strings.Cut(rest, to)
		if !ok || !ok2 {
			t.Fatalf("no %q ... %q", from, to)
		}
		lines := strings.Split(rest, "\n")
		for i, l := range lines {
			lines[i] = strings.TrimLeft(l, " \t")
		}
		return strings.Join(lines, "\n")
	}
	_, quickstart, _ := strings.Cut(read("README.md"), "## Quickstart\n")
	readme := between(quickstart, "func main() {\n", "\n}\n```\n")
	example := between(read("example_test.go"), "func ExampleNewConfig() {\n", "\n}\n")
	if !strings.Contains(example, readme) {
		t.Errorf("README's Quickstart main is not ExampleNewConfig's body.\nREADME:\n%s\nExampleNewConfig:\n%s", readme, example)
	}
}

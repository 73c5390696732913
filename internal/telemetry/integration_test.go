package telemetry_test

// Integration tests driving the full kernel with telemetry attached. They
// live in an external test package so they can import the root gowarp
// package, which itself depends on internal/telemetry.

import (
	"io"
	"testing"
	"time"

	"gowarp"
	"gowarp/internal/telemetry"
)

func pholdModel() *gowarp.Model {
	return gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects: 16, TokensPerObject: 4, MeanDelay: 20,
		Locality: 0.5, LPs: 2, Seed: 7,
	})
}

func adaptiveConfig() gowarp.Config {
	cfg := gowarp.DefaultConfig(20_000)
	cfg.GVTPeriod = time.Millisecond
	cfg.Checkpoint = gowarp.CheckpointConfig{Mode: gowarp.DynamicCheckpointing, Interval: 1, Period: 64}
	cfg.Cancellation = gowarp.CancellationConfig{Mode: gowarp.DynamicCancellation}
	cfg.Aggregation = gowarp.AggregationConfig{Policy: gowarp.SAAW, Window: time.Millisecond}
	return cfg
}

// TestKernelTrace runs an adaptive simulation with tracing on and checks the
// merged trace contains the event kinds the run must have produced.
func TestKernelTrace(t *testing.T) {
	tracer := telemetry.NewTracer(0)
	cfg := adaptiveConfig()
	cfg.Tracer = tracer
	res, err := gowarp.Run(pholdModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := tracer.Events()
	if len(evs) == 0 {
		t.Fatal("tracer recorded no events")
	}
	byKind := map[telemetry.Kind]int{}
	for _, ev := range evs {
		byKind[ev.Kind]++
	}
	// GVT cycles always happen; flushes happen with SAAW on an inter-LP
	// workload. Rollback and controller events depend on the interleaving,
	// so only the stats-backed kinds are asserted strictly — and exactly only
	// when no ring wrapped: a rollback storm under a loaded machine overruns
	// a ring, and then what is retained is what was counted less some of what
	// was dropped.
	dropped := int(tracer.Dropped())
	held := func(kind telemetry.Kind, counted int64) {
		retained := byKind[kind]
		if retained > int(counted) || int(counted) > retained+dropped {
			t.Errorf("trace retains %d %s events of %d counted, %d dropped over all kinds",
				retained, kind, counted, dropped)
		}
	}
	if byKind[telemetry.KindGVT] == 0 {
		t.Errorf("no GVT cycle events in trace (kinds: %v)", byKind)
	}
	held(telemetry.KindGVT, res.Stats.GVTCycles)
	if res.Stats.PhysicalMsgsSent > 0 && byKind[telemetry.KindFlush] == 0 {
		t.Errorf("physical messages were sent but no flush events recorded")
	}
	held(telemetry.KindRollback, res.Stats.Rollbacks)
	// Events must come out wall-clock ordered.
	for i := 1; i < len(evs); i++ {
		if evs[i].Wall < evs[i-1].Wall {
			t.Fatalf("events out of order at %d: %v after %v", i, evs[i].Wall, evs[i-1].Wall)
		}
	}
	// Both exporters must render the real trace without error.
	if err := tracer.WriteJSONL(io.Discard); err != nil {
		t.Errorf("WriteJSONL: %v", err)
	}
	if err := tracer.WriteChrome(io.Discard); err != nil {
		t.Errorf("WriteChrome: %v", err)
	}
}

// TestDisabledTelemetryIsInert checks a run with no tracer and no registry
// behaves identically to the seed kernel (nil hooks everywhere).
func TestDisabledTelemetryIsInert(t *testing.T) {
	cfg := adaptiveConfig()
	res, err := gowarp.Run(pholdModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsCommitted == 0 {
		t.Fatal("simulation committed no events")
	}
}

package core_test

import (
	"testing"
	"time"

	"gowarp/internal/cancel"
	"gowarp/internal/core"
	"gowarp/internal/statesave"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// TestTunerExternalAdjustment forces parameters into a running simulation
// and checks that (a) the forced settings are in force at the end, and (b)
// the results stay exactly correct.
func TestTunerExternalAdjustment(t *testing.T) {
	cfg := testConfig(30_000)
	cfg.Cancellation = cancel.Config{Mode: cancel.Dynamic, FilterDepth: 8, Period: 2}
	cfg.Checkpoint = statesave.Config{Mode: statesave.Periodic, Interval: 1}
	tn := core.NewTuner()
	cfg.Tuner = tn

	// Adjust mid-run from another goroutine, as an operator would.
	go func() {
		time.Sleep(20 * time.Millisecond)
		tn.SetCheckpointInterval(9)
		tn.ForceAggressive()
		tn.SetOptimismWindow(500)
	}()

	m := testModel(41)
	res, err := core.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The run may have been too fast to catch the adjustment; only assert
	// the forced values when the run outlived the set call.
	if res.Elapsed < 25*time.Millisecond {
		t.Skip("run finished before the adjustment fired")
	}
	for _, po := range res.PerObject {
		if po.FinalCheckpointInt != 9 {
			t.Errorf("%s: checkpoint interval %d, want forced 9", po.Name, po.FinalCheckpointInt)
		}
		if po.FinalStrategy != "aggressive" {
			t.Errorf("%s: strategy %s, want forced aggressive", po.Name, po.FinalStrategy)
		}
	}

	// And correctness is unaffected.
	seq, err := core.RunSequential(m, cfg.EndTime, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("committed %d vs sequential %d", res.Stats.EventsCommitted, seq.EventsExecuted)
	}
}

// TestTunerBeforeRun applies overrides before the run starts; they take
// effect at the first GVT.
func TestTunerBeforeRun(t *testing.T) {
	cfg := testConfig(2000)
	tn := core.NewTuner()
	tn.SetCheckpointInterval(5)
	tn.ForceLazy()
	cfg.Tuner = tn
	res, err := core.Run(testModel(43), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, po := range res.PerObject {
		if po.FinalCheckpointInt != 5 {
			t.Errorf("%s: interval %d, want 5", po.Name, po.FinalCheckpointInt)
		}
		if po.FinalStrategy != "lazy" {
			t.Errorf("%s: strategy %s, want lazy", po.Name, po.FinalStrategy)
		}
	}
}

// TestTunerWindowOverride checks the optimism-window override paths: the run
// executes inside the forced window and matches the sequential kernel, and
// the Result and the live gauge both report the window that was in force —
// on a static run, whose gauge once went on exporting the configured value,
// and under the adaptive facet, where the override re-seeds the controller
// (pinned here by an unreachable sample floor, so the forced value stays).
func TestTunerWindowOverride(t *testing.T) {
	pinned := core.OptimismConfig{Mode: core.OptimismAdaptive, Window: 100, MinSample: 1 << 40}
	for i, tc := range []struct {
		name        string
		optimism    core.OptimismConfig
		force, want vtime.Time
	}{
		{"static: unbounded forced to 50", core.OptimismConfig{}, 50, 50},
		{"static: bounded forced unbounded", core.OptimismConfig{Window: 100}, 0, 0},
		{"adaptive: re-seeded at 50", pinned, 50, 50},
		{"adaptive: re-seeded unbounded", pinned, 0, 0},
	} {
		tn := core.NewTuner()
		tn.SetOptimismWindow(tc.force)
		cfg := testConfig(800)
		cfg.Optimism = tc.optimism
		cfg.Tuner = tn
		cfg.Metrics = telemetry.NewRegistry()
		res := assertMatchesSequential(t, testModel(47+uint64(i)), cfg)
		if res.FinalOptimismWindow != tc.want {
			t.Errorf("%s: FinalOptimismWindow = %d, want %d", tc.name, res.FinalOptimismWindow, tc.want)
		}
		gauge := cfg.Metrics.Gauge("gowarp_optimism_window", "", false).Get(0)
		if gauge != float64(res.FinalOptimismWindow) {
			t.Errorf("%s: gowarp_optimism_window = %v, FinalOptimismWindow = %d", tc.name, gauge, res.FinalOptimismWindow)
		}
	}
}

package gowarp_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"gowarp"
)

// deterministicArtifact runs the PHOLD workload with a fixed seed under cfg
// and returns the marshaled deterministic slice of its run record — the
// bytes twsim -json-out would produce, stripped of wall-clock-dependent
// fields.
func deterministicArtifact(t *testing.T, seed uint64, cfg gowarp.Config) []byte {
	t.Helper()
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects: 16, TokensPerObject: 3, MeanDelay: 10,
		Locality: 0.2, LPs: 4, Seed: seed,
	})
	res, err := gowarp.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Record().Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testCfg(end gowarp.VTime) gowarp.Config {
	cfg := gowarp.DefaultConfig(end)
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.Optimism.Window = 100
	return cfg
}

// TestSeedDeterminismAcrossRepeats pins reproducibility: the same model,
// seed and configuration must yield byte-identical deterministic run
// artifacts however the goroutines interleave.
func TestSeedDeterminismAcrossRepeats(t *testing.T) {
	want := deterministicArtifact(t, 41, testCfg(1500))
	for i := 1; i < 3; i++ {
		if got := deterministicArtifact(t, 41, testCfg(1500)); string(got) != string(want) {
			t.Fatalf("repeat %d diverged:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestSeedDeterminismAdaptiveOptimism pins that the adaptive optimism
// controller — whose firing schedule rides the wall-clock-driven GVT cadence
// — never leaks into the deterministic artifact: the same seed yields the
// same final-state hash and committed count with the facet on, and the same
// artifact as the static-window run, because the window throttles when LPs
// may execute, never what they commit.
func TestSeedDeterminismAdaptiveOptimism(t *testing.T) {
	optCfg := func() gowarp.Config {
		cfg := testCfg(1500)
		cfg.Optimism = gowarp.OptimismConfig{
			Mode: gowarp.OptimismAdaptive, Window: 200,
			Min: 25, Max: 1600, Period: 1,
			HighWater: 0.3, LowWater: 0.1, MinSample: 16,
		}
		return cfg
	}
	want := deterministicArtifact(t, 41, optCfg())
	for i := 1; i < 3; i++ {
		if got := deterministicArtifact(t, 41, optCfg()); string(got) != string(want) {
			t.Fatalf("adaptive repeat %d diverged:\n%s\nvs\n%s", i, got, want)
		}
	}
	if static := deterministicArtifact(t, 41, testCfg(1500)); string(static) != string(want) {
		t.Fatalf("adaptive optimism changed semantics:\n%s\nvs static\n%s", want, static)
	}
}

// TestSeedsDistinguishRuns guards the test above against vacuity: different
// seeds must produce different artifacts (distinct final-state hashes).
func TestSeedsDistinguishRuns(t *testing.T) {
	a := deterministicArtifact(t, 41, testCfg(1500))
	b := deterministicArtifact(t, 42, testCfg(1500))
	if string(a) == string(b) {
		t.Fatalf("seeds 41 and 42 produced identical artifacts: %s", a)
	}
}

// TestDeterministicStripsWallClock documents which record fields survive
// Deterministic(): only the model name, committed-event count and
// final-state hash; elapsed time, the final GVT and the full counter tally —
// and with them every derived rate — are zeroed.
func TestDeterministicStripsWallClock(t *testing.T) {
	rec := gowarp.RunRecord{
		Model:          "m",
		Elapsed:        1500 * time.Millisecond,
		GVT:            12345,
		FinalStateHash: 7,
	}
	rec.Stats.EventsCommitted = 10
	rec.Stats.Rollbacks = 3
	d := rec.Deterministic()
	if d.Model != "m" || d.FinalStateHash != 7 || d.Stats.EventsCommitted != 10 {
		t.Errorf("deterministic fields lost: %+v", d)
	}
	if d.Elapsed != 0 || d.EventRate() != 0 || d.GVT != 0 || d.Stats.Rollbacks != 0 {
		t.Errorf("wall-clock-dependent fields survived: %+v", d)
	}
}

// Example of the auditor through the public API, doubling as a smoke test.
func TestPublicAuditAPI(t *testing.T) {
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects: 8, TokensPerObject: 2, MeanDelay: 10, Locality: 0.3, LPs: 2, Seed: 3,
	})
	cfg := testCfg(800)
	au := gowarp.NewAuditor()
	cfg.Audit = au
	if _, err := gowarp.Run(m, cfg); err != nil {
		t.Fatal(err)
	}
	if err := au.Err(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	var zero gowarp.AuditViolation
	if zero.Invariant != "" {
		t.Error("zero violation carries an invariant")
	}
	if fmt.Sprint(au.Checks()) == "0" {
		t.Error("auditor idle during an audited run")
	}
}

package stats

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"gowarp/internal/vtime"
)

// TestRunRecordJSON: the disk form has every stored key under its tag and the
// derived keys computed from the stored ones; reading it back gives the
// record, and the derived keys are not read (a doctored one changes nothing).
// The figures are those of cmd/twreport/testdata/smmp40.run.json.
func TestRunRecordJSON(t *testing.T) {
	rec := RunRecord{
		Model:   "m",
		Ranks:   1,
		Elapsed: 6014543 * time.Nanosecond,
		GVT:     vtime.PosInf,
		Stats: Counters{
			EventsProcessed: 2210, EventsCommitted: 2175, EventsRolledBack: 35,
			Rollbacks: 22, RollbackLength: 35, LazyHits: 1, LazyMisses: 3,
			OptimismAdjustments: 4, StateSaveTime: time.Millisecond,
		},
		PerWorker:           []WorkerStats{{Worker: 0, Events: 9}, {Worker: 1}},
		Roughness:           &RoughnessSummary{Samples: 3, MeanWidth: 1.5, MaxWidth: 4},
		FinalOptimismWindow: 100,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]any{
		"model": "m", "elapsed_seconds": 0.006014543, "final_gvt": "+inf",
		"events_per_sec": 361623.48494307883, "efficiency": 2175.0 / 2210,
		"hit_ratio": 0.25, "mean_rollback_length": 35.0 / 22,
		"wasted_work_ratio": 35.0 / 2175, "optimism_switches": 4.0, "workers": 2.0,
		"final_optimism_window": 100.0,
	} {
		if !reflect.DeepEqual(keys[key], want) {
			t.Errorf("%s = %v, want %v", key, keys[key], want)
		}
	}
	for _, absent := range []string{"Elapsed", "GVT", "flags", "rank", "wire", "final_state_hash"} {
		if _, ok := keys[absent]; ok {
			t.Errorf("key %q written", absent)
		}
	}

	keys["efficiency"], keys["workers"] = 0.5, 7
	doctored, err := json.Marshal(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]byte{data, doctored} {
		var back RunRecord
		if err := json.Unmarshal(in, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Errorf("read back\n%+v, wrote\n%+v", back, rec)
		}
	}
	if err := json.Unmarshal([]byte(`{"final_gvt":"soon"}`), new(RunRecord)); err == nil {
		t.Error("a final_gvt that is no virtual time was read")
	}
}

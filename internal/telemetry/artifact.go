package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchResult is the machine-readable per-experiment artifact written by
// `twbench -json <dir>` as BENCH_<name>.json: one figure's rows, for a
// caller that wants them as data rather than as the printed table.
type BenchResult struct {
	// Name is the experiment name (e.g. "fig5").
	Name string `json:"name"`
	// Title is the human-readable experiment title.
	Title string `json:"title"`
	// Rows holds one entry per (series, swept-x) measurement.
	Rows []BenchRow `json:"rows"`
}

// BenchRow is one measured point of a benchmark experiment.
type BenchRow struct {
	Series       string  `json:"series"`
	X            float64 `json:"x"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	Efficiency   float64 `json:"efficiency"`
	Rollbacks    int64   `json:"rollbacks"`
	// CheckpointBytes and CapsuleBytes track the codec facet's byte
	// savings (stored sizes; omitted for experiments that predate them).
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`
	CapsuleBytes    int64 `json:"capsule_bytes,omitempty"`
	// AllocsPerEvent and BytesPerEvent are heap allocations and bytes per
	// committed event (runtime.MemStats deltas around the run) — the
	// host-independent allocation regression signal (omitted by producers
	// that predate them).
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
	BytesPerEvent  float64 `json:"bytes_per_event,omitempty"`
	// WastedWorkRatio is rolled-back / committed events for the measured
	// run (omitted by producers that predate it).
	WastedWorkRatio float64 `json:"wasted_work_ratio,omitempty"`
}

// WriteJSON marshals v with indentation and writes it to path.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

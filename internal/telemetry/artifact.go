package telemetry

import (
	"encoding/json"
	"fmt"
	"os"

	"gowarp/internal/stats"
)

// RunSummary is the machine-readable per-run artifact written by
// `twsim -json-out`: enough to regress throughput, efficiency and the
// on-line controllers' end states across commits without parsing tables.
type RunSummary struct {
	// Model names the simulation model.
	Model string `json:"model"`
	// Flags records the CLI configuration that produced the run.
	Flags map[string]string `json:"flags,omitempty"`
	// Transport names the communication substrate ("inproc" or "tcp").
	// Empty means inproc (pre-transport artifacts).
	Transport string `json:"transport,omitempty"`
	// Rank is this process's rank in a distributed run (0 otherwise). Only
	// rank 0's artifact covers the whole model.
	Rank int `json:"rank,omitempty"`
	// Ranks is the number of processes in the run (1 for in-process).
	Ranks int `json:"ranks,omitempty"`
	// ElapsedSeconds is the wall-clock duration of the parallel phase.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// FinalGVT is the final Global Virtual Time ("+inf" when drained).
	FinalGVT string `json:"final_gvt"`
	// EventsPerSec is committed events per wall-clock second.
	EventsPerSec float64 `json:"events_per_sec"`
	// Efficiency is committed / processed events.
	Efficiency float64 `json:"efficiency"`
	// HitRatio is the overall lazy-cancellation hit ratio.
	HitRatio float64 `json:"hit_ratio"`
	// MeanRollbackLength is events undone per rollback episode.
	MeanRollbackLength float64 `json:"mean_rollback_length"`
	// WastedWorkRatio is rolled-back / committed events: how much optimistic
	// work the run threw away per unit of useful progress.
	WastedWorkRatio float64 `json:"wasted_work_ratio"`
	// FinalStateHash is a structural hash of every object's committed final
	// state (audit.HashStates); equal hashes mean semantically identical
	// outcomes. Zero when the producer did not compute it.
	FinalStateHash uint64 `json:"final_state_hash,omitempty"`
	// Stats is the full merged counter tally.
	Stats stats.Counters `json:"stats"`
	// PerLP holds each logical process's own tally, for per-LP efficiency
	// breakdowns (twreport's efficiency table).
	PerLP []stats.Counters `json:"per_lp,omitempty"`
	// PerObject carries per-object controller end states.
	PerObject []stats.PerObject `json:"per_object,omitempty"`
	// TraceDropped is the number of trace events lost to ring wraparound
	// (0 when tracing was off or the ring sufficed).
	TraceDropped int64 `json:"trace_dropped,omitempty"`
	// FinalPartition is the object→LP assignment when the run ended, so
	// placement trajectories can be compared across runs. It equals the
	// static partition unless load balancing migrated objects;
	// wall-clock-dependent when balancing is on, hence excluded from
	// Deterministic.
	FinalPartition []int `json:"final_partition,omitempty"`
	// Workers is the number of dispatcher workers this process ran.
	Workers int `json:"workers,omitempty"`
	// PerWorker holds each worker's tally. Event and adoption counts are
	// wall-clock-dependent — excluded from Deterministic.
	PerWorker []stats.WorkerStats `json:"per_worker,omitempty"`
	// FinalWorkerAssignment is the LP→worker map when the run ended (-1 for
	// LPs another rank hosts); like FinalPartition it records where the
	// on-line remap controller converged, and is equally
	// wall-clock-dependent.
	FinalWorkerAssignment []int `json:"final_worker_assignment,omitempty"`
	// HostRanks is how many of the run's ranks share this process's machine,
	// as its transport placed them (0: no transport, or it does not know); the
	// default Workers is this rank's share of the cores, so a fleet's
	// artifacts say why each rank ran as wide as it did.
	HostRanks int `json:"host_ranks,omitempty"`
	// Wire is the system-call tally of this process's links to its peer ranks
	// (reads, empty reads, writes, refused writes, bytes, write cost); empty
	// in process. Wall-clock-dependent.
	Wire []stats.LinkStats `json:"wire,omitempty"`
	// Roughness summarizes the virtual-time roughness samples (nil when the
	// observation sampler was off).
	Roughness *RoughnessSummary `json:"roughness,omitempty"`
	// RollbackDepthHist is the rollback-depth histogram: bucket i counts
	// rollback episodes that undid at most observe.DepthBounds[i] events,
	// with the final slot as the overflow bucket.
	RollbackDepthHist []int64 `json:"rollback_depth_hist,omitempty"`
	// FinalOptimismWindow is the optimism window in force when the run
	// ended (0 = unbounded — always emitted, because the adaptive
	// controller relaxing fully open is a result, not an absence). It moves
	// under the adaptive optimism facet, whose trajectory is
	// wall-clock-dependent, hence — like FinalPartition — excluded from
	// Deterministic.
	FinalOptimismWindow int64 `json:"final_optimism_window"`
	// OptimismSwitches counts adaptive-optimism window adjustments (also in
	// Stats; surfaced here so reports can read it without the full tally).
	OptimismSwitches int64 `json:"optimism_switches,omitempty"`
}

// RoughnessSummary condenses a run's virtual-time roughness samples: how
// spread out the LPs' local virtual times were, on average and at worst.
// Width is max-min over finite LVTs at a sample instant; StdDev their
// standard deviation. Defined here (rather than in internal/observe, which
// produces it) so RunSummary can embed it without an import cycle.
type RoughnessSummary struct {
	// Samples is the number of roughness samples taken.
	Samples int64 `json:"samples"`
	// MeanWidth and MaxWidth aggregate the LVT spread across samples.
	MeanWidth float64 `json:"mean_width"`
	MaxWidth  int64   `json:"max_width"`
	// MeanStdDev is the mean per-sample standard deviation of the LVTs.
	MeanStdDev float64 `json:"mean_stddev"`
}

// Deterministic returns a copy of the summary stripped to the fields that
// must be byte-identical across repeated runs of the same model, seed and
// configuration: the model name, the committed-event count and the
// final-state hash. Wall-clock-dependent fields (elapsed time, rates,
// rollback counts, even the exact final GVT) are zeroed — they legitimately
// vary run to run. Marshal the result to regress reproducibility.
func (s RunSummary) Deterministic() RunSummary {
	return RunSummary{
		Model:          s.Model,
		FinalStateHash: s.FinalStateHash,
		Stats:          stats.Counters{EventsCommitted: s.Stats.EventsCommitted},
	}
}

// BenchResult is the machine-readable per-experiment artifact written by
// `twbench -json <dir>` as BENCH_<name>.json, tracking the performance
// trajectory across commits.
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

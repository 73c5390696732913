package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"gowarp/internal/vtime"
)

// RunRecord is what a run leaves behind: the kernel's result (core.Result
// embeds it) and, marshalled, the artifact `twsim -json-out` writes and
// twreport, twcheck's multiproc leg and observe.Report read back. This struct
// is the artifact's one declaration: a key on disk is a tag here or one of the
// derived keys MarshalJSON adds (rates and ratios computed from Stats,
// PerWorker, Elapsed and GVT, never stored). The kernel fills everything it
// knows; a command line adds only Flags and Transport.
type RunRecord struct {
	// Model names the simulation model.
	Model string `json:"model"`
	// Flags records the CLI configuration that produced the run.
	Flags map[string]string `json:"flags,omitempty"`
	// Transport names the communication substrate ("inproc" or "tcp").
	// Empty means inproc (pre-transport artifacts).
	Transport string `json:"transport,omitempty"`
	// Rank is this process's rank in a distributed run (0 otherwise). Only
	// rank 0's record covers the whole model.
	Rank int `json:"rank,omitempty"`
	// Ranks is the number of processes in the run (1 for in-process).
	Ranks int `json:"ranks,omitempty"`
	// Elapsed is the wall-clock duration of the parallel phase
	// (elapsed_seconds on disk).
	Elapsed time.Duration `json:"-"`
	// GVT is the final Global Virtual Time, vtime.PosInf when the model
	// drained before the end time (final_gvt on disk, as GVT.String()).
	GVT vtime.Time `json:"-"`
	// FinalStateHash is a structural hash of every object's committed final
	// state (audit.HashStates); equal hashes mean semantically identical
	// outcomes. A core.Result computes it when it is marshalled (rank 0 only:
	// no other rank holds the whole model's states), so it costs a run
	// nothing; a loaded record carries what was written. Zero: not computed.
	FinalStateHash uint64 `json:"final_state_hash,omitempty"`
	// Stats is the merged tally across logical processes.
	Stats Counters `json:"stats"`
	// PerLP holds each logical process's own tally.
	PerLP []Counters `json:"per_lp,omitempty"`
	// PerObject records per-object observations (rollbacks, final hit
	// ratio, final strategy, final checkpoint interval), indexed by ObjectID
	// until a reporter sorts it.
	PerObject []PerObject `json:"per_object,omitempty"`
	// TraceDropped is the number of trace events lost to ring wraparound
	// (0 when tracing was off or the ring sufficed).
	TraceDropped int64 `json:"trace_dropped,omitempty"`
	// FinalPartition is the object→LP assignment when the run ended. It
	// equals the model's static partition unless load balancing migrated
	// objects; wall-clock-dependent when balancing is on, hence excluded
	// from Deterministic.
	FinalPartition []int `json:"final_partition,omitempty"`
	// PerWorker holds the scheduling statistics of each of this process's
	// dispatcher workers; the event-pool tallies in Stats are their sum.
	// Wall-clock-dependent — excluded from Deterministic.
	PerWorker []WorkerStats `json:"per_worker,omitempty"`
	// FinalWorkerAssignment is the LP→worker map when the run ended, indexed
	// by LP, -1 for LPs another rank hosts; it differs from the initial block
	// sharding only when the on-line remap controller moved LPs, and is
	// equally wall-clock-dependent.
	FinalWorkerAssignment []int `json:"final_worker_assignment,omitempty"`
	// HostRanks is how many of the run's ranks share this process's machine,
	// as its transport placed them (0: it does not know, as InProc); the
	// default worker count is this rank's share of the cores, so a fleet's
	// records say why each rank ran as wide as it did.
	HostRanks int `json:"host_ranks,omitempty"`
	// Wire is the system-call tally of this process's own links, one entry per
	// peer rank, when the transport keeps one (comm.TCP does); other ranks'
	// links are in their own records. Wall-clock-dependent.
	Wire []LinkStats `json:"wire,omitempty"`
	// Roughness summarizes the virtual-time roughness samples the kernel took
	// of this process's LPs, one at every GVT application and one at the final
	// GVT (nil when no LP had executed an event by a completed GVT round).
	Roughness *RoughnessSummary `json:"roughness,omitempty"`
	// RollbackDepthHist is the rollback-depth histogram of this process's LPs:
	// bucket i counts rollback episodes that undid at most DepthBounds[i]
	// events, with the final slot as the overflow bucket (nil without
	// rollbacks).
	RollbackDepthHist []int64 `json:"rollback_depth_hist,omitempty"`
	// FinalOptimismWindow is the optimism window in force when the run
	// ended (0 = unbounded — always emitted, because the adaptive
	// controller relaxing fully open is a result, not an absence). It equals
	// the configured window unless the adaptive optimism facet moved it;
	// wall-clock-dependent when adaptive, hence — like
	// FinalPartition — excluded from Deterministic.
	FinalOptimismWindow vtime.Time `json:"final_optimism_window"`
}

// RoughnessSummary condenses a run's virtual-time roughness samples: how
// spread out the LPs' local virtual times were, on average and at worst.
// Width is max-min over finite LVTs at a sample's GVT cut; StdDev their
// standard deviation.
type RoughnessSummary struct {
	// Samples is the number of roughness samples taken.
	Samples int64 `json:"samples"`
	// MeanWidth and MaxWidth aggregate the LVT spread across samples.
	MeanWidth float64 `json:"mean_width"`
	MaxWidth  int64   `json:"max_width"`
	// MeanStdDev is the mean per-sample standard deviation of the LVTs.
	MeanStdDev float64 `json:"mean_stddev"`
}

// RoughnessFold folds roughness samples into a RoughnessSummary: the kernel
// folds the samples it takes, a report the samples it reads from a trace.
type RoughnessFold struct {
	samples, maxWidth int64
	sumWidth, sumStd  float64
}

// Add folds in one sample of the given LVT width and standard deviation.
func (f *RoughnessFold) Add(width int64, std float64) {
	f.samples++
	f.sumWidth += float64(width)
	f.sumStd += std
	f.maxWidth = max(f.maxWidth, width)
}

// Summary returns the aggregates, or nil when nothing was folded.
func (f *RoughnessFold) Summary() *RoughnessSummary {
	if f.samples == 0 {
		return nil
	}
	n := float64(f.samples)
	return &RoughnessSummary{Samples: f.samples, MeanWidth: f.sumWidth / n, MaxWidth: f.maxWidth, MeanStdDev: f.sumStd / n}
}

// DepthBounds are the rollback-depth histogram's bucket upper bounds: bucket
// i counts rollback episodes that undid at most DepthBounds[i] events, and one
// overflow bucket follows the last bound.
var DepthBounds = [...]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// DepthBucket returns the histogram bucket of a rollback that undid depth
// events.
func DepthBucket(depth int64) int {
	i := 0
	for i < len(DepthBounds) && depth > DepthBounds[i] {
		i++
	}
	return i
}

// EventRate returns committed events per second of wall-clock time — the
// headline throughput metric of Section 8.
func (r *RunRecord) EventRate() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Stats.EventsCommitted) / s
}

// Deterministic returns a copy of the record stripped to the fields that
// must be byte-identical across repeated runs of the same model, seed and
// configuration: the model name, the committed-event count and the
// final-state hash. Wall-clock-dependent fields (elapsed time, rollback
// counts, even the exact final GVT) are zeroed — they legitimately vary run
// to run. Marshal the result to regress reproducibility.
func (r RunRecord) Deterministic() RunRecord {
	return RunRecord{
		Model:          r.Model,
		FinalStateHash: r.FinalStateHash,
		Stats:          Counters{EventsCommitted: r.Stats.EventsCommitted},
	}
}

// stored is RunRecord's tagged fields without its methods, for the codec
// below to embed.
type stored RunRecord

// MarshalJSON writes the stored keys, then the keys derived from them.
func (r RunRecord) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		stored
		ElapsedSeconds     float64 `json:"elapsed_seconds"`
		FinalGVT           string  `json:"final_gvt"`
		EventsPerSec       float64 `json:"events_per_sec"`
		Efficiency         float64 `json:"efficiency"`
		HitRatio           float64 `json:"hit_ratio"`
		MeanRollbackLength float64 `json:"mean_rollback_length"`
		WastedWorkRatio    float64 `json:"wasted_work_ratio"`
		OptimismSwitches   int64   `json:"optimism_switches,omitempty"`
		Workers            int     `json:"workers,omitempty"`
	}{
		stored:             stored(r),
		ElapsedSeconds:     r.Elapsed.Seconds(),
		FinalGVT:           r.GVT.String(),
		EventsPerSec:       r.EventRate(),
		Efficiency:         r.Stats.Efficiency(),
		HitRatio:           r.Stats.HitRatio(),
		MeanRollbackLength: r.Stats.MeanRollbackLength(),
		WastedWorkRatio:    r.Stats.WastedWorkRatio(),
		OptimismSwitches:   r.Stats.OptimismAdjustments,
		Workers:            len(r.PerWorker),
	})
}

// UnmarshalJSON reads the stored keys, and Elapsed and GVT from their disk
// forms. The other derived keys are not read: the methods compute them.
func (r *RunRecord) UnmarshalJSON(data []byte) error {
	aux := struct {
		*stored
		ElapsedSeconds float64 `json:"elapsed_seconds"`
		FinalGVT       string  `json:"final_gvt"`
	}{stored: (*stored)(r)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	r.Elapsed = time.Duration(math.Round(aux.ElapsedSeconds * 1e9))
	if aux.FinalGVT == "" {
		return nil
	}
	var err error
	r.GVT, err = vtime.Parse(aux.FinalGVT)
	return err
}

// ReadRunRecord loads the artifact at path.
func ReadRunRecord(path string) (*RunRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(RunRecord)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

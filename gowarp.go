// Package gowarp is a Time Warp parallel discrete event simulation kernel
// with on-line configuration, reproducing Radhakrishnan, Abu-Ghazaleh,
// Chetlur and Wilsey, "On-line Configuration of a Time Warp Parallel
// Discrete Event Simulator" (ICPP 1998).
//
// Simulation models are collections of Objects exchanging time-stamped
// events. The kernel executes them optimistically across logical processes,
// detecting causality violations and rolling back as needed; all Time Warp
// machinery — state saving, rollback, cancellation, GVT, fossil collection —
// is the kernel's business, invisible to models. One engine drives the LPs, a
// dispatcher whose workers each pull their lowest-timestamp runnable LP from
// a local schedule queue: as many workers as the LPs can use of the machine's
// cores by default, or Config.Workers of them, multiplexing arbitrarily many
// LPs — what hosts models of 10^6 objects — in one process or on every rank
// of a TCP-connected fleet, where the same workers read and write the
// sockets.
//
// Six facets of the kernel can be configured statically or placed under
// on-line feedback control. Every facet has the same shape — a Mode, its
// static parameters, and (where adaptive) a controller block with the
// paper's <O,I,S,T,P> structure: an Observable sampled each Period, an
// Index computed from it, and a dead-zoned Threshold that gates actuation:
//
//   - Check-pointing (Config.Checkpoint): a fixed interval, or the Section 4
//     controller that adapts the interval to minimize state-saving +
//     coast-forward cost.
//   - Cancellation (Config.Cancellation): aggressive, lazy, or the Section 5
//     dynamic selector driven by the Hit Ratio through a dead-zone threshold
//     (with the PS and PA freezing variants).
//   - Message aggregation (Config.Aggregation): none, a fixed window (FAW),
//     or the Section 6 adaptive window (SAAW).
//   - Load balance (Config.Balance): static placement, or on-line object
//     migration driven by per-LP advance rates through a dead zone.
//   - State codec (Config.Codec): how checkpoints and migration capsules are
//     encoded — full copies, reversible incremental deltas against the
//     previous checkpoint (one full image per object, the newest), or an on-line
//     controller that switches each object full<->delta by the observed
//     delta/full stored-bytes ratio; optionally LZ-compressed on the wire.
//   - Optimism (Config.Optimism): a fixed bounded time window
//     (Optimism.Window, 0 = unbounded, the default), or an on-line
//     controller that starts there, tightens the window when the LPs'
//     wasted-work ratio climbs and relaxes it toward unbounded optimism
//     when the virtual-time surface is smooth, both read at one GVT.
//
// Run reads a Config once, when it starts. Nothing outside the kernel moves a
// setting after that: a controlled item has one writer, its own controller,
// and is watched through Config.Metrics (live gauges, refreshed at every GVT)
// and Config.Tracer (one record per adjustment).
//
// A minimal model and run:
//
//	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{Objects: 8, LPs: 2})
//	cfg := gowarp.DefaultConfig(100_000)
//	cfg.Cancellation = gowarp.CancellationConfig{Mode: gowarp.DynamicCancellation}
//	res, err := gowarp.Run(m, cfg)
//
// Or fluently, facet by facet, with NewConfig:
//
//	cfg := gowarp.NewConfig(100_000).
//		WithCancellation(gowarp.DynamicCancellation).
//		WithCodec(gowarp.CodecDynamic, gowarp.LZCompression).
//		Build()
//
// The communication substrate simulates a network of workstations: every
// physical message costs its sender CPU time, so aggregation and
// cancellation trade-offs are real wall-clock trade-offs. See DESIGN.md for
// the substitution rationale and EXPERIMENTS.md for the paper reproduction.
package gowarp

import (
	"gowarp/internal/apps/logic"
	"gowarp/internal/apps/phold"
	"gowarp/internal/apps/qnet"
	"gowarp/internal/apps/raid"
	"gowarp/internal/apps/smmp"
	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/core"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/partition"
	"gowarp/internal/statesave"
	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// Model-facing types.
type (
	// Model is a complete simulation application: objects plus their
	// partition onto logical processes.
	Model = model.Model
	// Object is a simulation object; see model.Object for the contract.
	Object = model.Object
	// State is an object's saveable state; Clone must deep-copy.
	State = model.State
	// Context is the kernel handle passed to Init and Execute.
	Context = model.Context
	// Event is a time-stamped message between objects.
	Event = event.Event
	// ObjectID names a simulation object.
	ObjectID = event.ObjectID
	// VTime is a point in virtual time.
	VTime = vtime.Time
	// Rand is the deterministic, state-embeddable random generator models
	// must use for any randomness (see model.Rand).
	Rand = model.Rand
	// Partition maps objects to logical processes.
	Partition = model.Partition
)

// NewRand returns a Rand seeded from seed; store it by value inside object
// state so rollbacks restore the stream.
func NewRand(seed uint64) Rand { return model.NewRand(seed) }

// EndOfTime is the virtual time beyond every finite timestamp.
const EndOfTime = vtime.PosInf

// Configuration types.
type (
	// Config is the simulator configuration (the paper's term for the
	// choice of sub-algorithms and their parameters).
	Config = core.Config
	// CheckpointConfig configures state saving (paper Section 4).
	CheckpointConfig = statesave.Config
	// CancellationConfig configures cancellation selection (Section 5).
	CancellationConfig = cancel.Config
	// AggregationConfig configures message aggregation (Section 6).
	AggregationConfig = comm.AggConfig
	// CostModel is the simulated communication cost model.
	CostModel = comm.CostModel
	// Result is what a run produces.
	Result = core.Result
	// SeqResult is what a sequential reference run produces.
	SeqResult = core.SeqResult
	// Counters is the statistics tally.
	Counters = stats.Counters
	// WorkerStats is one dispatcher worker's run tally (Result.PerWorker).
	WorkerStats = stats.WorkerStats
	// BalanceConfig configures on-line dynamic load balancing — object
	// migration between logical processes as a fourth controlled facet
	// (set Config.Balance; off by default).
	BalanceConfig = core.BalanceConfig
	// CodecConfig configures the state-codec facet: how checkpoints and
	// migration capsules are encoded and compressed (set Config.Codec; off
	// by default).
	CodecConfig = codec.Config
	// CodecControllerConfig is the codec facet's on-line controller block
	// (CodecConfig.Controller), active under CodecDynamic.
	CodecControllerConfig = codec.ControllerConfig
	// OptimismConfig configures the optimism facet: the bounded-time-window
	// throttle as a sixth controlled item, with an on-line controller
	// steering the window by observed rollback waste and LVT roughness
	// (set Config.Optimism; static by default).
	OptimismConfig = core.OptimismConfig
)

// DeltaState is the optional model-state interface that enables the codec
// facet for an object: a State that can also marshal itself to a
// deterministic, fixed-layout byte encoding and unmarshal one. UnmarshalState
// decodes data, reusing the receiver's storage where it can, and returns the
// decoded state — after the call the receiver is unspecified unless it is
// what was returned; the kernel calls it on the state a rollback is about to
// replace, so a state that fills itself in place restores without allocating.
// States that do not implement it fall back to cloned full checkpoints.
type DeltaState = codec.DeltaState

// DirtyState is DeltaState's optional sibling for a state with a fixed-layout
// encoding that knows what its events wrote: MarshalDirty hands the kernel the
// regions of the encoding that may have changed since the kernel last
// marshalled or unmarshalled the state, and a checkpoint costs those bytes
// instead of a marshal and a compare of the whole image. StateRegion is one
// such region. The contract, and what under-reporting does, is on
// codec.DirtyState; README "State codec" has a worked example.
type (
	DirtyState  = codec.DirtyState
	StateRegion = codec.Region
)

// Load-balance modes (BalanceConfig.Mode).
const (
	// BalanceStatic keeps the initial object placement (the default).
	BalanceStatic = core.BalanceStatic
	// BalanceDynamic migrates objects on line by observed advance rates.
	BalanceDynamic = core.BalanceDynamic
)

// Codec modes (CodecConfig.Mode).
const (
	// CodecOff disables the codec facet: cloned full checkpoints (default).
	CodecOff = codec.Off
	// CodecFull stores every checkpoint as a full marshalled encoding.
	CodecFull = codec.Full
	// CodecDelta stores checkpoints as reversible deltas against the previous
	// one; a rollback walks back from the newest image.
	CodecDelta = codec.Delta
	// CodecDynamic lets the on-line controller switch each object between
	// full and delta encoding by the observed stored-bytes ratio.
	CodecDynamic = codec.Dynamic
)

// Optimism modes (OptimismConfig.Mode).
const (
	// OptimismStatic keeps OptimismConfig.Window (0 = unbounded optimism)
	// for the whole run (the default).
	OptimismStatic = core.OptimismStatic
	// OptimismAdaptive steers the window on line by the wasted-work and
	// LVT-roughness signals of the LPs' progress records.
	OptimismAdaptive = core.OptimismAdaptive
)

// Codec compression choices (CodecConfig.Compression).
const (
	// NoCompression stores and ships encodings as-is.
	NoCompression = codec.NoCompression
	// LZCompression applies the self-contained LZ77 coder to checkpoints,
	// migration capsules and aggregated wire payloads.
	LZCompression = codec.LZ
)

// Per-facet mode types (the first field of every facet config).
type (
	// CheckpointMode selects the state-saving policy.
	CheckpointMode = statesave.Mode
	// CancellationMode selects the cancellation strategy.
	CancellationMode = cancel.Mode
	// AggregationPolicy selects the message-aggregation policy.
	AggregationPolicy = comm.Policy
	// BalanceMode selects static placement or dynamic load balancing.
	BalanceMode = core.BalanceMode
	// CodecMode selects the checkpoint/capsule encoding policy.
	CodecMode = codec.Mode
	// CodecCompression selects the codec's compression algorithm.
	CodecCompression = codec.Compression
	// OptimismMode selects the static window or the adaptive controller.
	OptimismMode = core.OptimismMode
)

// Checkpointing modes.
const (
	// PeriodicCheckpointing saves state every χ events, χ fixed.
	PeriodicCheckpointing = statesave.Periodic
	// DynamicCheckpointing adapts χ on line (paper Section 4).
	DynamicCheckpointing = statesave.Dynamic
)

// Cancellation modes.
const (
	// AggressiveCancellation cancels immediately on rollback (AC).
	AggressiveCancellation = cancel.StaticAggressive
	// LazyCancellation delays cancellation pending re-execution (LC).
	LazyCancellation = cancel.StaticLazy
	// DynamicCancellation selects per object via the Hit Ratio (DC).
	DynamicCancellation = cancel.Dynamic
)

// Aggregation policies.
const (
	// NoAggregation sends each event as its own physical message.
	NoAggregation = comm.NoAggregation
	// FAW holds aggregates for a fixed window.
	FAW = comm.FAW
	// SAAW adapts the window with the age-modified reception rate.
	SAAW = comm.SAAW
)

// Communication transports: the substrate carrying physical messages between
// logical processes. By default (Config.Transport nil) it is the in-process
// transport, charging Config.Cost: every LP lives in this process and a send
// reaches the destination's mailbox before it returns. A TCP transport makes
// this process one rank of a multi-process run; see ParseTransportSpec for
// the command-line form.
type (
	// Transport is the communication substrate abstraction (see
	// comm.Transport for the full contract). A Transport of your own must
	// implement SetSink, Poll, Flush and Arm beside Send, Recv, Peers, Start
	// and Close: the kernel delivers through the sink; a wrapper that embeds
	// Transport has them promoted.
	Transport = comm.Transport
	// TransportPeers describes a transport's process topology.
	TransportPeers = comm.Peers
	// TCPTransportConfig parameterizes NewTCPTransport.
	TCPTransportConfig = comm.TCPConfig
)

// NewInProcTransport returns the in-process transport for numLPs logical
// processes, charging no communication cost. Leaving Config.Transport nil
// means the same transport charging Config.Cost (comm.NewInProc(numLPs,
// comm.WithCost(Config.Cost))). It is there to be wrapped (a tracing or
// fault-injecting Transport around it).
func NewInProcTransport(numLPs int) Transport { return comm.NewInProc(numLPs) }

// NewTCPTransport returns a TCP transport for one rank of a multi-process
// run. The kernel starts it (join handshake) and closes it (flush and drain)
// around the run.
func NewTCPTransport(cfg TCPTransportConfig) (Transport, error) { return comm.NewTCP(cfg) }

// DefaultConfig returns the all-static baseline configuration of the paper's
// experiments: periodic check-pointing, aggressive cancellation, no
// aggregation.
func DefaultConfig(endTime VTime) Config { return core.DefaultConfig(endTime) }

// DefaultCostModel returns the network-of-workstations communication cost
// model used by the reproduction benchmarks.
func DefaultCostModel() CostModel { return comm.DefaultCostModel() }

// Run executes m under cfg on the parallel Time Warp kernel, blocking until
// GVT passes cfg.EndTime or the model drains.
func Run(m *Model, cfg Config) (*Result, error) { return core.Run(m, cfg) }

// RunSequential executes m on the sequential reference kernel: strict global
// timestamp order, no optimism. Its results define correctness for Run.
func RunSequential(m *Model, endTime VTime) (*SeqResult, error) {
	return core.RunSequential(m, endTime, 0)
}

// Telemetry: structured tracing, live metrics and machine-readable run
// artifacts (see internal/telemetry).
type (
	// Tracer records structured kernel trace events — rollbacks,
	// controller adjustments, GVT cycles, aggregation flushes — into
	// per-LP ring buffers (set Config.Tracer). Export recorded runs with
	// WriteJSONL or WriteChrome (chrome://tracing / Perfetto).
	Tracer = telemetry.Tracer
	// TraceEvent is one recorded trace event.
	TraceEvent = telemetry.Event
	// MetricsRegistry is the live metrics registry the kernel refreshes
	// each GVT cycle (set Config.Metrics). Render it with WritePrometheus
	// or Snapshot, or serve it over HTTP with gowarp/metricshttp.Serve — a
	// leaf package, so that only a program that wants the endpoint links
	// net/http.
	MetricsRegistry = telemetry.Registry
	// RunRecord is what a run leaves behind: Result embeds it, and marshalled
	// it is the artifact twsim -json-out writes (unmarshal one into it).
	// Every run fills its Roughness — the virtual-time roughness the kernel
	// samples at each GVT application: LVT width and standard deviation
	// across LPs — and its RollbackDepthHist.
	RunRecord = stats.RunRecord
)

// NewTracer returns a tracer whose per-LP rings hold capacity events each
// (<= 0 selects the default, ~64k). When a ring fills, the oldest events
// are overwritten.
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// NewMetricsRegistry returns an empty live metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// WriteJSON writes v to path as indented JSON (run artifacts, summaries). A
// *Result writes its RunRecord, final-state hash included.
func WriteJSON(path string, v any) error { return telemetry.WriteJSON(path, v) }

// SortPerObject orders a result's per-object rows (Result.PerObject, indexed
// by ObjectID as the kernel leaves them) by name, for reports.
func SortPerObject(s []stats.PerObject) { stats.SortPerObject(s) }

// Runtime invariant auditing (see internal/audit): an Auditor checks the
// Time Warp invariants on-line — commit/GVT safety, execution order,
// anti-message pairing, message conservation, checkpoint integrity — while a
// run executes.
type (
	// Auditor is the runtime invariant checker (set Config.Audit).
	Auditor = audit.Auditor
	// AuditViolation is one recorded invariant violation.
	AuditViolation = audit.Violation
)

// NewAuditor returns an invariant auditor ready to set as Config.Audit. After
// the run, Auditor.Err reports any violations and Auditor.Report renders the
// full tally.
func NewAuditor() *Auditor { return audit.New() }

// HashStates returns a structural hash of a run's final object states
// (Result.FinalStates or SeqResult.FinalStates): equal hashes mean
// semantically identical outcomes regardless of pointer identity or map
// ordering inside the states.
func HashStates(states []State) uint64 { return audit.HashStates(states) }

// Partitioning utilities (the paper notes the optimal cancellation strategy
// "is sensitive to the partitioning scheme"; its model generators partition
// to exploit fast intra-LP communication).
type (
	// PartitionGraph is a weighted object-communication graph.
	PartitionGraph = partition.Graph
)

// NewPartitionGraph returns an empty communication graph over n objects.
func NewPartitionGraph(n int) *PartitionGraph { return partition.NewGraph(n) }

// BlockPartition assigns objects to LPs in contiguous ranges.
func BlockPartition(n, lps int) Partition { return partition.Block(n, lps) }

// RoundRobinPartition cycles objects across LPs.
func RoundRobinPartition(n, lps int) Partition { return partition.RoundRobin(n, lps) }

// GreedyPartition builds a communication-aware partition of g onto lps
// logical processes (greedy seeding plus Kernighan-Lin-style refinement).
func GreedyPartition(g *PartitionGraph, lps int) Partition { return partition.Greedy(g, lps) }

// ProbeGraph measures m's communication graph by executing a bounded
// sequential prefix (at most maxEvents events, never past endTime): vertex
// weights are per-object execution counts, edge weights events exchanged.
// Feed the result to GreedyPartition for a measurement-driven placement.
func ProbeGraph(m *Model, endTime VTime, maxEvents int64) (*PartitionGraph, error) {
	return core.ProbeGraph(m, endTime, maxEvents)
}

// Bundled models (the paper's two applications plus the PHOLD synthetic).
type (
	// SMMPConfig parameterizes the shared-memory multiprocessor model.
	SMMPConfig = smmp.Config
	// RAIDConfig parameterizes the RAID disk-array model.
	RAIDConfig = raid.Config
	// PHOLDConfig parameterizes the PHOLD synthetic workload.
	PHOLDConfig = phold.Config
)

// NewSMMP builds the paper's SMMP application (Section 7): processors with
// local caches over an interleaved global memory. The zero config is the
// paper's 16-processor / 4-LP setup.
func NewSMMP(cfg SMMPConfig) *Model { return smmp.New(cfg) }

// NewRAID builds the paper's RAID application (Section 7): request sources,
// striping forks and disks. The zero config is the paper's 20-source /
// 4-fork / 8-disk / 4-LP setup.
func NewRAID(cfg RAIDConfig) *Model { return raid.New(cfg) }

// NewPHOLD builds the PHOLD synthetic workload.
func NewPHOLD(cfg PHOLDConfig) *Model { return phold.New(cfg) }

// QNetConfig parameterizes the closed queueing-network model, the classic
// PDES benchmark family whose FCFS order-sensitivity makes aggressive
// cancellation win (the counterpoint to SMMP and gate-level logic).
type QNetConfig = qnet.Config

// NewQNet builds a closed queueing network of FCFS stations.
func NewQNet(cfg QNetConfig) *Model { return qnet.New(cfg) }

// Gate-level digital logic simulation (the paper group's own application
// domain: digital systems models in VHDL).
type (
	// LogicConfig parameterizes a logic-circuit model.
	LogicConfig = logic.Config
	// Netlist is a gate-level circuit description.
	Netlist = logic.Netlist
)

// NewLogic builds a simulation model from a netlist.
func NewLogic(nl *Netlist, cfg LogicConfig) *Model { return logic.New(nl, cfg) }

// NewLogicPipeline builds a synchronous pipelined circuit: width bits
// through the given number of combinational+register stages.
func NewLogicPipeline(width, stages int, cfg LogicConfig) *Model {
	return logic.NewPipeline(width, stages, cfg)
}

// LFSRNetlist builds a linear-feedback shift register circuit.
func LFSRNetlist(width int, taps []int, clockPeriod VTime) *Netlist {
	return logic.LFSR(width, taps, clockPeriod)
}

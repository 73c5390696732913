// Package core is the Time Warp simulation kernel: optimistically
// synchronized logical processes, run by the workers of one dispatcher (see
// dispatch.go), hosting simulation objects with the three history queues of
// Figure 1 of the paper (input, output, state), straggler detection and rollback with coast forward,
// aggressive/lazy/dynamic cancellation, periodic and dynamic check-pointing,
// dynamic message aggregation, Mattern-style GVT and fossil collection.
//
// A sequential reference kernel (RunSequential) executes the same models in
// strict timestamp order; tests validate the parallel kernel against it.
package core

import (
	"encoding/json"
	"time"

	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/model"
	"gowarp/internal/statesave"
	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// Config is the simulator configuration of the paper's terminology: the
// choice of sub-algorithms for each kernel facet plus their parameters.
type Config struct {
	// EndTime is the virtual time at which the simulation stops; events
	// with later receive times are never executed.
	EndTime vtime.Time

	// Checkpoint configures state saving (Section 4).
	Checkpoint statesave.Config
	// Cancellation configures cancellation-strategy selection (Section 5).
	Cancellation cancel.Config
	// Aggregation configures dynamic message aggregation (Section 6).
	Aggregation comm.AggConfig
	// Cost is the simulated communication cost model.
	Cost comm.CostModel

	// Transport is the communication substrate. Nil means
	// comm.NewInProc(LPs, comm.WithCost(Cost)): every LP is hosted in this
	// process and a send, charged Cost, lands in the destination LP's mailbox
	// before it returns. Whatever the transport, every send goes through it
	// and it delivers into the mailboxes through the sink Run installs
	// (SetSink); a transport given here charges its own cost model, not Cost.
	// A distributed transport (comm.TCP) makes this process one rank of a
	// multi-process run: the kernel hosts only the transport's local LPs, and
	// rank 0 gathers every rank's final states and counters so its Result
	// matches a single-process run. Run owns the lifecycle: it calls SetSink
	// and Start before launching workers and Close after the run, so pass a
	// freshly constructed, unstarted transport.
	Transport comm.Transport

	// EventCost is the CPU burn charged per event execution, standing in
	// for the paper's event-handler granularity. Zero means no burn.
	EventCost time.Duration

	// GVTPeriod is the wall-clock interval between GVT computations.
	GVTPeriod time.Duration

	// Workers is the width of the event dispatcher: that many worker
	// goroutines host the logical processes this process runs, each pulling
	// the lowest-timestamped runnable object from a per-worker schedule
	// queue, with LP→worker sharding re-mapped on line from observed commit
	// rates (see dispatch.go). Zero (the default) means min(hosted LPs,
	// GOMAXPROCS, max(1, NumCPU / ranks on this host)): a worker per hosted LP
	// up to this rank's share of the machine's cores — the ranks on this host
	// being what the Transport says of its placement (comm.Peers.HostRanks;
	// comm.TCP reads it off its address list; InProc says nothing) — so
	// that least-timestamp-first, not a scheduler, decides which LP a core
	// runs next, also when several ranks of one run land on one machine.
	// Values above the hosted LP count are clamped to it, which makes any such
	// value the spelling of a worker per LP. Any width runs over any
	// Transport, and the workers are also who polls and flushes it: over TCP
	// they read and write the sockets themselves. A worker yields its P after
	// every round where the width exceeds GOMAXPROCS or the Transport's own
	// goroutines deliver (comm.TCP's reader driver, where the non-blocking
	// socket calls are missing); otherwise only while another worker of the
	// rank, just woken, waits for a P, and it keeps its core from round to
	// round. Any other goroutine of the process, the caller's own or a
	// Transport's, then gets a P when a worker waits or when Go's scheduler
	// preempts one, within 10 ms.
	Workers int

	// Tracer, when non-nil, receives structured trace events — rollback
	// episodes, checkpoint-interval adjustments, cancellation-strategy
	// switches, GVT cycles, aggregation flushes — into per-LP ring buffers
	// (see telemetry.Tracer). Nil disables tracing at the cost of a pointer
	// comparison per hook site.
	Tracer *telemetry.Tracer

	// Metrics, when non-nil, is bound to the run and refreshed by every LP
	// at each GVT application (the kernel's control period) with live
	// gauges: GVT, efficiency, hit ratio, rollback rate, mean checkpoint
	// interval, aggregation window, the LVT surface's width and standard
	// deviation, the rollback-depth histogram. Serve it with
	// gowarp/metricshttp.Serve to scrape a running simulation.
	Metrics *telemetry.Registry

	// Audit, when non-nil, checks the Time Warp invariants on-line while the
	// run executes — commit/GVT safety, execution order, anti-message
	// pairing, message conservation, checkpoint integrity — and records any
	// violation (see audit.Auditor). Nil disables auditing at the cost of a
	// pointer comparison per hook site.
	Audit *audit.Auditor

	// Balance configures on-line dynamic load balancing: object placement
	// becomes a fourth controlled facet, with objects migrating between LPs
	// at run time under a <O,I,S,T,P> controller (see BalanceConfig).
	// Disabled by default; when disabled the kernel behaves exactly as with
	// static placement.
	Balance BalanceConfig

	// Codec configures the state-codec facet (the fifth facet): incremental
	// reversible delta checkpointing, compression of stored
	// snapshots, migration-capsule states and flushed wire payloads, and an
	// on-line controller switching each object between full and delta
	// encoding from observed stored sizes. The zero value is off: cloned
	// checkpoints and uncompressed payloads, exactly the pre-codec kernel.
	Codec codec.Config

	// Optimism configures optimism control, the sixth facet. A positive
	// Optimism.Window bounds optimism: an LP never executes an event more
	// than that much virtual time past the last known GVT (the
	// bounded-time-window throttle of Palaniswamy & Wilsey, cited as prior
	// adaptive work in the paper's introduction). The zero value is static
	// and unbounded, Jefferson-style. Under OptimismAdaptive the window is a
	// controlled item whose on-line controller consumes the LPs' wasted work
	// and the spread of their LVTs, both read off their progress records at
	// one GVT, and tightens or relaxes it at run time (see OptimismConfig).
	Optimism OptimismConfig
}

// BalanceMode selects how object placement is managed, mirroring the other
// facets' Mode fields.
type BalanceMode int

const (
	// BalanceStatic keeps the model's static partition for the whole run:
	// no load recording, no controller, and routing-table reads are single
	// atomic loads.
	BalanceStatic BalanceMode = iota
	// BalanceDynamic turns on migration and the on-line load controller.
	BalanceDynamic
)

// String names the mode for reports and flags.
func (m BalanceMode) String() string {
	if m == BalanceDynamic {
		return "dynamic"
	}
	return "static"
}

// BalanceConfig parameterizes the load-balancing controller as the paper's
// control tuple: the sampled output O is the per-LP committed-event share
// since the controller's last decision, cut at one GVT for every LP, the
// configured item I is
// the object→LP assignment (the routing table), the initial setting S is the
// model's static partition, the transfer function T migrates the best
// boundary object from the most- to the least-loaded LP when the imbalance
// leaves a dead zone, and the period P is a multiple of the GVT period.
type BalanceConfig struct {
	// Mode selects static placement or the dynamic load controller.
	Mode BalanceMode
	// Period is the number of GVT applications between controller firings
	// (the P component; default 8).
	Period int
	// HighWater and LowWater bound the dead zone on the load-imbalance
	// metric max/mean: the controller starts migrating when imbalance
	// exceeds HighWater and stops once it falls below LowWater (defaults
	// 1.25 and 1.10).
	HighWater float64
	LowWater  float64
	// MaxMoves caps migrations issued per controller firing (default 1).
	MaxMoves int
	// MinSample is the minimum number of events processed across all LPs
	// within the observation window before the controller acts; windows
	// thinner than this are statistical noise (default 64).
	MinSample int64
}

// Dynamic reports whether the dynamic load controller is selected.
func (c BalanceConfig) Dynamic() bool { return c.Mode == BalanceDynamic }

func (c BalanceConfig) withDefaults() BalanceConfig {
	if c.Period <= 0 {
		c.Period = 8
	}
	if c.HighWater <= 0 {
		c.HighWater = 1.25
	}
	if c.LowWater <= 0 {
		c.LowWater = 1.10
	}
	if c.LowWater > c.HighWater {
		c.LowWater = c.HighWater
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = 1
	}
	if c.MinSample <= 0 {
		c.MinSample = 64
	}
	return c
}

// DefaultConfig returns a configuration matching the paper's all-static
// baseline: periodic check-pointing, aggressive cancellation, no
// aggregation, and zero synthetic CPU costs (the benchmarks set realistic
// ones).
func DefaultConfig(endTime vtime.Time) Config {
	return Config{
		EndTime:      endTime,
		Checkpoint:   statesave.Config{Mode: statesave.Periodic, Interval: 4},
		Cancellation: cancel.Config{Mode: cancel.StaticAggressive},
		Aggregation:  comm.AggConfig{Policy: comm.NoAggregation},
		GVTPeriod:    time.Millisecond,
	}
}

// Result is what a simulation run produces: the run record — marshalled, the
// artifact `twsim -json-out` writes — and what only a caller in the same
// process can use.
type Result struct {
	stats.RunRecord
	// FinalStates holds every object's committed final state, indexed by
	// ObjectID; used for cross-kernel determinism checks.
	FinalStates []model.State
}

// Record returns the run record with FinalStateHash computed from
// FinalStates. Only rank 0 of a distributed run holds the whole model's final
// states; other ranks report a zero hash rather than a misleading partial one.
func (r Result) Record() stats.RunRecord {
	rec := r.RunRecord
	if rec.Rank == 0 {
		rec.FinalStateHash = audit.HashStates(r.FinalStates)
	}
	return rec
}

// MarshalJSON writes Record: the hash is taken here, when an artifact is asked
// for, and never inside Run's timed phase.
func (r Result) MarshalJSON() ([]byte, error) { return json.Marshal(r.Record()) }

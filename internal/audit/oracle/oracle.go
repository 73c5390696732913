// Package oracle is the kernel's differential correctness harness. It runs
// one model through the sequential reference kernel, then through the
// parallel Time Warp kernel under every cell of a configuration matrix
// (checkpointing x cancellation x aggregation) with the runtime invariant
// auditor enabled, and optionally through the conservative
// kernel. Any divergence — committed-event counts, final-state hashes, or an
// audit violation — is a kernel bug: the configuration facets must never
// change simulation semantics.
package oracle

import (
	"fmt"
	"strings"
	"time"

	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/conservative"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/statesave"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// Cell is one point of the configuration matrix.
type Cell struct {
	// Index is the cell's position in Matrix() (0..26); decoded as
	// (ckpt*3+cancel)*3+agg.
	Index        int
	Checkpoint   statesave.Config
	Cancellation cancel.Config
	Aggregation  comm.AggConfig
}

// Name renders the cell compactly, e.g. "chi8/lazy/faw".
func (c Cell) Name() string {
	ck := "dynchi"
	if c.Checkpoint.Mode == statesave.Periodic {
		ck = fmt.Sprintf("chi%d", c.Checkpoint.Interval)
	}
	ca := map[cancel.Mode]string{
		cancel.StaticAggressive: "aggr",
		cancel.StaticLazy:       "lazy",
		cancel.Dynamic:          "dyncan",
	}[c.Cancellation.Mode]
	ag := map[comm.Policy]string{
		comm.NoAggregation: "noagg",
		comm.FAW:           "faw",
		comm.SAAW:          "saaw",
	}[c.Aggregation.Policy]
	return fmt.Sprintf("%s/%s/%s", ck, ca, ag)
}

// Matrix returns the full 27-cell configuration matrix: 3 checkpointing
// policies (periodic chi=1, periodic chi=8, dynamic) x 3 cancellation
// strategies (aggressive, lazy, dynamic) x 3 aggregation policies (none,
// FAW, SAAW).
func Matrix() []Cell {
	ckpts := []statesave.Config{
		{Mode: statesave.Periodic, Interval: 1},
		{Mode: statesave.Periodic, Interval: 8},
		{Mode: statesave.Dynamic, Interval: 4, Period: 32},
	}
	cancels := []cancel.Config{
		{Mode: cancel.StaticAggressive},
		{Mode: cancel.StaticLazy},
		{Mode: cancel.Dynamic, FilterDepth: 8, Period: 2},
	}
	aggs := []comm.AggConfig{
		{Policy: comm.NoAggregation},
		{Policy: comm.FAW, Window: 50 * time.Microsecond},
		{Policy: comm.SAAW, Window: 50 * time.Microsecond},
	}

	cells := make([]Cell, 0, len(ckpts)*len(cancels)*len(aggs))
	for _, ck := range ckpts {
		for _, ca := range cancels {
			for _, ag := range aggs {
				cells = append(cells, Cell{
					Index:        len(cells),
					Checkpoint:   ck,
					Cancellation: ca,
					Aggregation:  ag,
				})
			}
		}
	}
	return cells
}

// Diagonal returns 9 distinct cells of the matrix that together exercise
// every policy value of every facet three times and every pair of values of
// two facets once — the reduced sweep for short test runs. The agg
// coordinate is the Latin-square offset of the other two.
func Diagonal() []Cell {
	full := Matrix()
	cells := make([]Cell, 0, 9)
	for i := 0; i < 9; i++ {
		ck, ca := i%3, i/3
		ag := (ck + ca) % 3
		cells = append(cells, full[(ck*3+ca)*3+ag])
	}
	return cells
}

// Options parameterize a differential run.
type Options struct {
	// Name labels the model in the report.
	Name string
	// EndTime is the virtual end time for every leg.
	EndTime vtime.Time
	// GVTPeriod is the parallel kernel's GVT period (0 = 200us, tight so
	// fossil collection and commit checks actually run during short tests).
	GVTPeriod time.Duration
	// Optimism configures the optimism facet in every parallel leg: a
	// static Window bounds optimism (0 = unbounded), and the adaptive window
	// controller throttles when LPs may execute, never what they commit, so
	// every differential and invariant check applies unchanged with it on.
	Optimism core.OptimismConfig
	// Lookahead, when positive, adds one conservative-kernel leg using this
	// as the CMB lookahead. It must not exceed the model's true minimum
	// send delay.
	Lookahead vtime.Time
	// Balance, when dynamic, turns on the dynamic load balancer in every
	// parallel leg — the migration-on slice of the matrix. Object migration
	// must never change simulation semantics, so every differential and
	// invariant check applies unchanged.
	Balance core.BalanceConfig
	// Codec configures the state-codec facet in every parallel leg. Like the
	// other facets it must never change simulation semantics: delta
	// reconstruction and capsule round-trips have to reproduce the sequential
	// reference's final-state hash byte for byte.
	Codec codec.Config
	// Observe, when set, attaches a tracer to every parallel leg: a trace
	// ring per LP for rollback attribution, and the system ring that takes
	// the kernel's roughness samples. Observation must be non-perturbing —
	// every differential and invariant check applies unchanged with it on.
	Observe bool
	// Workers is the dispatcher width of every parallel leg: n > 0 workers,
	// 0 a worker per LP — the widest interleaving, which is what an oracle
	// wants unless told otherwise — and DefaultWidth the kernel's own default
	// (core.Config.Workers 0: a worker per LP up to the available cores). The
	// dispatcher schedules when LPs run, never what they commit, so every
	// differential and invariant check applies unchanged.
	Workers int
	// Cells selects the matrix subset to run (nil = the full Matrix()).
	Cells []Cell
}

// DefaultWidth is the Options.Workers value that leaves the dispatcher width
// to the kernel.
const DefaultWidth = -1

// CellResult is the outcome of one parallel leg.
type CellResult struct {
	Cell       Cell
	Committed  int64
	StateHash  uint64
	Checks     int64
	Violations []audit.Violation
	// Mismatch describes any divergence from the sequential reference
	// ("" = none).
	Mismatch string
	// Err is a kernel run failure (panic, validation).
	Err error
}

func (r CellResult) ok() bool {
	return r.Err == nil && r.Mismatch == "" && len(r.Violations) == 0
}

// Report is the outcome of a differential run.
type Report struct {
	Model       string
	EndTime     vtime.Time
	RefExecuted int64
	RefHash     uint64
	// ConservativeCommitted is -1 when no conservative leg ran.
	ConservativeCommitted int64
	ConservativeMismatch  string
	Cells                 []CellResult
	TotalChecks           int64
}

// Failed returns the cells that diverged, violated an invariant, or errored.
func (r *Report) Failed() []CellResult {
	var out []CellResult
	for _, c := range r.Cells {
		if !c.ok() {
			out = append(out, c)
		}
	}
	return out
}

// Err returns nil when every leg agreed with the reference and passed every
// invariant check.
func (r *Report) Err() error {
	failed := r.Failed()
	if len(failed) == 0 && r.ConservativeMismatch == "" {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %s: %d of %d cell(s) failed", r.Model, len(failed), len(r.Cells))
	for i, c := range failed {
		if i == 3 {
			b.WriteString("; ...")
			break
		}
		fmt.Fprintf(&b, "; [%s] %s", c.Cell.Name(), c.failure())
	}
	if r.ConservativeMismatch != "" {
		fmt.Fprintf(&b, "; [conservative] %s", r.ConservativeMismatch)
	}
	return fmt.Errorf("%s", b.String())
}

func (r CellResult) failure() string {
	switch {
	case r.Err != nil:
		return r.Err.Error()
	case r.Mismatch != "":
		return r.Mismatch
	case len(r.Violations) > 0:
		return r.Violations[0].String()
	}
	return "ok"
}

// Render formats the report as an aligned table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle %s: end=%s reference executed=%d hash=%016x\n",
		r.Model, r.EndTime, r.RefExecuted, r.RefHash)
	if r.ConservativeCommitted >= 0 {
		status := "ok"
		if r.ConservativeMismatch != "" {
			status = "FAIL " + r.ConservativeMismatch
		}
		fmt.Fprintf(&b, "  %-28s committed=%-8d %s\n", "conservative", r.ConservativeCommitted, status)
	}
	for _, c := range r.Cells {
		status := "ok"
		if !c.ok() {
			status = "FAIL " + c.failure()
		}
		fmt.Fprintf(&b, "  %-28s committed=%-8d checks=%-8d %s\n",
			c.Cell.Name(), c.Committed, c.Checks, status)
	}
	fmt.Fprintf(&b, "  %d cell(s), %d failed, %d invariant checks\n",
		len(r.Cells), len(r.Failed()), r.TotalChecks)
	return b.String()
}

// Run executes the differential matrix for m. The returned error reports
// harness-level failures only (the reference kernel itself failing);
// per-cell divergence is in the Report — check Report.Err.
func Run(m *model.Model, opts Options) (*Report, error) {
	if opts.EndTime <= 0 {
		return nil, fmt.Errorf("oracle: non-positive end time %s", opts.EndTime)
	}
	gvtPeriod := opts.GVTPeriod
	if gvtPeriod <= 0 {
		gvtPeriod = 200 * time.Microsecond
	}
	cells := opts.Cells
	if cells == nil {
		cells = Matrix()
	}

	seq, err := core.RunSequential(m, opts.EndTime, 0)
	if err != nil {
		return nil, fmt.Errorf("oracle: sequential reference: %w", err)
	}
	rep := &Report{
		Model:                 opts.Name,
		EndTime:               opts.EndTime,
		RefExecuted:           seq.EventsExecuted,
		RefHash:               audit.HashStates(seq.FinalStates),
		ConservativeCommitted: -1,
	}

	if opts.Lookahead > 0 {
		cons, err := conservative.Run(m, conservative.Config{
			EndTime:   opts.EndTime,
			Lookahead: opts.Lookahead,
		})
		if err != nil {
			rep.ConservativeMismatch = fmt.Sprintf("run failed: %v", err)
		} else {
			rep.ConservativeCommitted = cons.Stats.EventsCommitted
			rep.ConservativeMismatch = diff(seq, cons.Stats.EventsCommitted,
				audit.HashStates(cons.FinalStates), rep.RefHash)
		}
	}

	for _, cell := range cells {
		rep.Cells = append(rep.Cells, runCell(m, cell, opts, gvtPeriod, seq, rep.RefHash))
		rep.TotalChecks += rep.Cells[len(rep.Cells)-1].Checks
	}
	return rep, nil
}

func runCell(m *model.Model, cell Cell, opts Options, gvtPeriod time.Duration,
	seq *core.SeqResult, refHash uint64) CellResult {
	au := audit.New()
	workers := opts.Workers
	switch workers {
	case 0:
		workers = m.NumLPs()
	case DefaultWidth:
		workers = 0
	}
	cfg := core.Config{
		EndTime:      opts.EndTime,
		Checkpoint:   cell.Checkpoint,
		Cancellation: cell.Cancellation,
		Aggregation:  cell.Aggregation,
		GVTPeriod:    gvtPeriod,
		Optimism:     opts.Optimism,
		Balance:      opts.Balance,
		Codec:        opts.Codec,
		Workers:      workers,
		Audit:        au,
	}
	if opts.Observe {
		cfg.Tracer = telemetry.NewTracer(1 << 12)
	}
	out := CellResult{Cell: cell}
	res, err := core.Run(m, cfg)
	if err != nil {
		out.Err = err
		return out
	}
	out.Committed = res.Stats.EventsCommitted
	out.StateHash = audit.HashStates(res.FinalStates)
	out.Checks = au.Checks()
	out.Violations = append(au.Violations(), audit.StatsViolations(&res.Stats)...)
	out.Mismatch = diff(seq, res.Stats.EventsCommitted, out.StateHash, refHash)
	return out
}

// diff compares a leg's committed count and state hash with the sequential
// reference.
func diff(seq *core.SeqResult, committed int64, hash, refHash uint64) string {
	if committed != seq.EventsExecuted {
		return fmt.Sprintf("committed %d events, reference executed %d", committed, seq.EventsExecuted)
	}
	if hash != refHash {
		return fmt.Sprintf("final-state hash %016x differs from reference %016x", hash, refHash)
	}
	return ""
}

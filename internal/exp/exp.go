// Package exp is the experiment harness: it regenerates, on the simulated
// network-of-workstations testbed, every table and figure of the paper's
// evaluation (Section 8), plus the design-choice ablations listed in
// DESIGN.md. Every figure is one grid — a configuration per series, a swept
// value per x, one timed run per cell — written through sweep. Experiments
// lists them; cmd/twbench and BenchmarkFigures both run from that list.
package exp

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"gowarp"
	"gowarp/internal/stats"
)

// Testbed fixes the simulated environment shared by all experiments: the
// communication cost model standing in for the paper's 10 Mb Ethernet NOW,
// the synthetic event granularity, and per-model optimism windows.
type Testbed struct {
	// Cost is the physical-message cost model.
	Cost gowarp.CostModel
	// EventCost is the CPU burn per event execution.
	EventCost time.Duration
	// GVTPeriod is the wall-clock GVT cadence.
	GVTPeriod time.Duration
	// SMMPWindow and RAIDWindow bound optimism per model (virtual time).
	SMMPWindow, RAIDWindow gowarp.VTime
	// StatePadding sizes object state so checkpointing has real cost.
	StatePadding int
	// Repeat is the number of measured runs averaged per data point.
	Repeat int
	// Quick shrinks workloads (used by tests to keep CI fast); the shapes
	// remain, absolute numbers shrink.
	Quick bool
}

// Default returns the testbed used for the recorded results in
// EXPERIMENTS.md.
func Default() Testbed {
	return Testbed{
		Cost:         gowarp.CostModel{PerMessage: 80 * time.Microsecond, PerByte: 10 * time.Nanosecond},
		EventCost:    5 * time.Microsecond,
		GVTPeriod:    10 * time.Millisecond,
		SMMPWindow:   2000,
		RAIDWindow:   4000,
		StatePadding: 16 << 10,
		Repeat:       1,
	}
}

// Row is one measured data point.
type Row struct {
	// X is the swept parameter value (requests, window age, ...).
	X float64
	// Seconds is the mean wall-clock execution time.
	Seconds float64
	// Rate is committed events per second.
	Rate float64
	// AllocsPerEvent and BytesPerEvent are the process-wide heap
	// allocation count and bytes per committed event (runtime.MemStats
	// deltas around the run), the hot-path allocation regression signal.
	AllocsPerEvent float64
	BytesPerEvent  float64
	// Stats is the (last run's) counter tally, for diagnostics.
	Stats stats.Counters
}

// Series is one plotted line: a labelled sequence of rows.
type Series struct {
	Name string
	Rows []Row
}

// Figure is one regenerated table/figure.
type Figure struct {
	Name   string // e.g. "fig5"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Experiment is one figure by its -exp name and the testbed method that
// regenerates it.
type Experiment struct {
	Name string
	Run  func(Testbed) (Figure, error)
}

// Experiments is every figure, in the order twbench runs them.
var Experiments = []Experiment{
	{"rates", Testbed.Rates},
	{"rates_codec", Testbed.RatesCodec},
	{"opt", Testbed.Optimism},
	{"scale", Testbed.Scale},
	{"fig5", Testbed.Fig5},
	{"fig6", Testbed.Fig6},
	{"fig7", Testbed.Fig7},
	{"fig8", Testbed.Fig8},
	{"fig9", Testbed.Fig9},
	{"ckpt-sweep", Testbed.CheckpointSweep},
	{"gvt-period", Testbed.GVTPeriodAblation},
	{"ctl-period", Testbed.ControlPeriodAblation},
	{"disk-sens", Testbed.DiskSensitivityAblation},
}

// Render prints the figure as an aligned text table, one row per X value,
// one column per series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.Name, f.Title)
	// Collect the X values in first-series order.
	if len(f.Series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %14s", s.Name)
	}
	fmt.Fprintf(&b, "   (%s)\n", f.YLabel)
	for i, r := range f.Series[0].Rows {
		fmt.Fprintf(&b, "%-14g", r.X)
		for _, s := range f.Series {
			if i < len(s.Rows) {
				fmt.Fprintf(&b, "  %14.3f", s.Rows[i].Seconds)
			} else {
				fmt.Fprintf(&b, "  %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values: one row per (series, X)
// point with execution seconds, committed-event rate and headline counters —
// ready for external plotting.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("figure,series,x,seconds,rate,efficiency,rollbacks,physical_msgs\n")
	for _, s := range f.Series {
		for _, r := range s.Rows {
			fmt.Fprintf(&b, "%s,%s,%g,%.6f,%.1f,%.4f,%d,%d\n",
				f.Name, s.Name, r.X, r.Seconds, r.Rate,
				r.Stats.Efficiency(), r.Stats.Rollbacks, r.Stats.PhysicalMsgsSent)
		}
	}
	return b.String()
}

// runOnce executes the model and returns elapsed seconds plus the result.
// Allocation counters come from runtime.MemStats deltas taken around each
// run; Elapsed is measured inside Run, so the MemStats reads do not
// contaminate the timing.
func (tb Testbed) run(m *gowarp.Model, cfg gowarp.Config) (Row, error) {
	var total float64
	var mallocs, bytes uint64
	var committed int64
	var last *gowarp.Result
	n := tb.Repeat
	if n < 1 {
		n = 1
	}
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&ms)
		m0, b0 := ms.Mallocs, ms.TotalAlloc
		res, err := gowarp.Run(m, cfg)
		if err != nil {
			return Row{}, err
		}
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		bytes += ms.TotalAlloc - b0
		committed += res.Stats.EventsCommitted
		total += res.Elapsed.Seconds()
		last = res
	}
	row := Row{
		Seconds: total / float64(n),
		Rate:    last.EventRate(),
		Stats:   last.Stats,
	}
	if committed > 0 {
		row.AllocsPerEvent = float64(mallocs) / float64(committed)
		row.BytesPerEvent = float64(bytes) / float64(committed)
	}
	return row, nil
}

// baseConfig returns the all-static baseline under the testbed environment.
func (tb Testbed) baseConfig(end, window gowarp.VTime) gowarp.Config {
	cfg := gowarp.DefaultConfig(end)
	cfg.Cost = tb.Cost
	cfg.EventCost = tb.EventCost
	cfg.GVTPeriod = tb.GVTPeriod
	cfg.Optimism.Window = window
	cfg.Checkpoint = gowarp.CheckpointConfig{
		Mode: gowarp.PeriodicCheckpointing,
		// WARPED's default: states are saved after every event execution.
		Interval: 1,
	}
	return cfg
}

// sweep runs one figure's grid x-major — at each x, a run per series — and
// appends each row to its series. cell returns the model and configuration
// of the point (x, series s), or a nil model to leave that point out. With
// narrate set, each point is also printed there as it finishes.
func (tb Testbed) sweep(fig Figure, series []string, xs []float64, narrate io.Writer,
	cell func(x float64, s int) (*gowarp.Model, gowarp.Config)) (Figure, error) {
	for _, name := range series {
		fig.Series = append(fig.Series, Series{Name: name})
	}
	for _, x := range xs {
		for si, name := range series {
			m, cfg := cell(x, si)
			if m == nil {
				continue
			}
			row, err := tb.run(m, cfg)
			if err != nil {
				return fig, fmt.Errorf("%s/%s/%g: %w", fig.Name, name, x, err)
			}
			row.X = x
			fig.Series[si].Rows = append(fig.Series[si].Rows, row)
			if narrate != nil {
				fmt.Fprintf(narrate, "  %s: %-9s %s=%-8g %8.3fs  %.0f ev/s  eff=%.3f\n",
					fig.Name, name, fig.XLabel, x, row.Seconds, row.Rate, row.Stats.Efficiency())
			}
		}
	}
	return fig, nil
}

// shrink is n under Quick: a tenth of it, but no less than floor.
func (tb Testbed) shrink(n, floor int) int {
	if tb.Quick {
		return max(n/10, floor)
	}
	return n
}

// smmp returns the paper's SMMP instance generating `requests` test vectors
// per processor on `lps` LPs (0 is the paper's four-way partition), plus its
// baseline config.
func (tb Testbed) smmp(requests, lps int) (*gowarp.Model, gowarp.Config) {
	m := gowarp.NewSMMP(gowarp.SMMPConfig{
		Requests:     tb.shrink(requests, 50),
		LPs:          lps,
		StatePadding: tb.StatePadding,
	})
	// Far horizon: the run ends when every processor finishes its vectors.
	cfg := tb.baseConfig(gowarp.VTime(1)<<40, tb.SMMPWindow)
	return m, cfg
}

// raid returns the paper's RAID instance generating `requests` requests per
// source, its disks order-sensitive (tracking the head) if asked, plus its
// baseline config.
func (tb Testbed) raid(requests int, sensitive bool) (*gowarp.Model, gowarp.Config) {
	m := gowarp.NewRAID(gowarp.RAIDConfig{
		RequestsPerSource:   tb.shrink(requests, 25),
		StatePadding:        tb.StatePadding,
		OrderSensitiveDisks: sensitive,
	})
	cfg := tb.baseConfig(gowarp.VTime(1)<<40, tb.RAIDWindow)
	return m, cfg
}

// paperModel is one of the model-indexed figures' workloads at its paper
// size: "raid" (500 requests per source), "smmp" (2,000 vectors per
// processor) or "smmp8" (the same SMMP spread over 8 LPs).
func (tb Testbed) paperModel(name string) (*gowarp.Model, gowarp.Config) {
	switch name {
	case "raid":
		return tb.raid(500, false)
	case "smmp8":
		return tb.smmp(2000, 8)
	}
	return tb.smmp(2000, 0)
}

// Cancellation strategy variants of Figures 6 and 7.
func ac() gowarp.CancellationConfig {
	return gowarp.CancellationConfig{Mode: gowarp.AggressiveCancellation}
}

func lc() gowarp.CancellationConfig {
	return gowarp.CancellationConfig{Mode: gowarp.LazyCancellation}
}

// dc is the paper's DC: filter depth 16, A2L 0.45, L2A 0.2.
func dc() gowarp.CancellationConfig {
	return gowarp.CancellationConfig{
		Mode: gowarp.DynamicCancellation, FilterDepth: 16,
		A2LThreshold: 0.45, L2AThreshold: 0.2,
	}
}

// st04 is the single-threshold variant: A2L = L2A = 0.4 (no dead zone).
func st04() gowarp.CancellationConfig {
	return gowarp.CancellationConfig{
		Mode: gowarp.DynamicCancellation, FilterDepth: 16,
		A2LThreshold: 0.4, L2AThreshold: 0.4,
	}
}

// ps freezes the strategy permanently after n comparisons.
func ps(n int) gowarp.CancellationConfig {
	c := dc()
	c.PermanentAfter = n
	return c
}

// pa10 freezes to aggressive after 10 consecutive misses.
func pa10() gowarp.CancellationConfig {
	c := dc()
	c.PermanentAggressiveRun = 10
	return c
}

// dynamicCheckpoint is the Section 4 controller configuration.
func dynamicCheckpoint() gowarp.CheckpointConfig {
	return gowarp.CheckpointConfig{
		Mode:     gowarp.DynamicCheckpointing,
		Interval: 1,
		Period:   256,
	}
}

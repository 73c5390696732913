package exp

import (
	"fmt"
	"time"

	"gowarp"
)

// CheckpointSweep measures execution time across static checkpoint intervals
// and the dynamic controller, substantiating the paper's claim that the
// dynamically controlled interval surpasses (or matches) the best static
// setting without knowing it in advance.
func (tb Testbed) CheckpointSweep() (Figure, error) {
	intervals := []int{1, 2, 4, 8, 16, 32}
	var series []string
	for _, chi := range intervals {
		series = append(series, fmt.Sprintf("chi=%d", chi))
	}
	return tb.sweep(Figure{
		Name:   "ckpt-sweep",
		Title:  "Static checkpoint-interval sweep vs dynamic controller (supplements Fig. 5)",
		XLabel: "model(0=raid,1=smmp)",
		YLabel: "execution seconds",
	}, append(series, "dynamic"), []float64{0, 1}, nil, func(x float64, s int) (*gowarp.Model, gowarp.Config) {
		m, cfg := tb.paperModel([]string{"raid", "smmp"}[int(x)])
		cfg.Cancellation = lc()
		cfg.Checkpoint = dynamicCheckpoint()
		if s < len(intervals) {
			cfg.Checkpoint = gowarp.CheckpointConfig{Mode: gowarp.PeriodicCheckpointing, Interval: intervals[s]}
		}
		return m, cfg
	})
}

// GVTPeriodAblation sweeps the GVT cadence, the knob trading memory and
// commit latency against control traffic.
func (tb Testbed) GVTPeriodAblation() (Figure, error) {
	return tb.sweep(Figure{
		Name:   "gvt-period",
		Title:  "GVT period sweep (SMMP)",
		XLabel: "period(ms)",
		YLabel: "execution seconds",
	}, []string{"SMMP"}, []float64{0.5, 1, 2, 5, 10}, nil, func(x float64, _ int) (*gowarp.Model, gowarp.Config) {
		m, cfg := tb.smmp(2000, 0)
		cfg.GVTPeriod = time.Duration(x * float64(time.Millisecond))
		return m, cfg
	})
}

// ControlPeriodAblation sweeps the checkpoint controller's invocation period
// P, substantiating the Section 3 remark that control must not run so often
// that tuning overhead outweighs the better configuration.
func (tb Testbed) ControlPeriodAblation() (Figure, error) {
	return tb.sweep(Figure{
		Name:   "ctl-period",
		Title:  "Checkpoint controller period sweep (SMMP, dynamic ckpt)",
		XLabel: "period(events)",
		YLabel: "execution seconds",
	}, []string{"SMMP"}, []float64{16, 64, 256, 1024, 4096}, nil, func(x float64, _ int) (*gowarp.Model, gowarp.Config) {
		m, cfg := tb.smmp(2000, 0)
		cfg.Cancellation = lc()
		cfg.Checkpoint = dynamicCheckpoint()
		cfg.Checkpoint.Period = int(x)
		return m, cfg
	})
}

// DiskSensitivityAblation flips RAID's disks to order-sensitive service
// (head tracking) and compares cancellation strategies, demonstrating that
// the hit-ratio-driven selector adapts to the application rather than to a
// fixed rule.
func (tb Testbed) DiskSensitivityAblation() (Figure, error) {
	strategies := []gowarp.CancellationConfig{ac(), lc(), dc()}
	return tb.sweep(Figure{
		Name:   "disk-sens",
		Title:  "RAID with order-sensitive disks: cancellation strategies",
		XLabel: "sensitive(0/1)",
		YLabel: "execution seconds",
	}, []string{"AC", "LC", "DC"}, []float64{0, 1}, nil, func(x float64, s int) (*gowarp.Model, gowarp.Config) {
		m, cfg := tb.raid(500, x == 1)
		cfg.Cancellation = strategies[s]
		return m, cfg
	})
}

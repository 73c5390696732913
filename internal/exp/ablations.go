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
	fig := Figure{
		Name:   "ckpt-sweep",
		Title:  "Static checkpoint-interval sweep vs dynamic controller (supplements Fig. 5)",
		XLabel: "model(0=raid,1=smmp)",
		YLabel: "execution seconds",
	}
	intervals := []int{1, 2, 4, 8, 16, 32}
	for _, x := range intervals {
		fig.Series = append(fig.Series, Series{Name: fmt.Sprintf("chi=%d", x)})
	}
	fig.Series = append(fig.Series, Series{Name: "dynamic"})

	models := []struct {
		name string
		mk   func() (*gowarp.Model, gowarp.Config)
	}{
		{"raid", func() (*gowarp.Model, gowarp.Config) { return tb.raid(500) }},
		{"smmp", func() (*gowarp.Model, gowarp.Config) { return tb.smmp(2000) }},
	}
	for mi, mm := range models {
		for si, chi := range intervals {
			m, cfg := mm.mk()
			cfg.Cancellation = lc()
			cfg.Checkpoint = gowarp.CheckpointConfig{
				Mode:     gowarp.PeriodicCheckpointing,
				Interval: chi,
			}
			row, err := tb.run(m, cfg)
			if err != nil {
				return fig, fmt.Errorf("ckpt-sweep/%s/chi=%d: %w", mm.name, chi, err)
			}
			row.X = float64(mi)
			fig.Series[si].Rows = append(fig.Series[si].Rows, row)
		}
		m, cfg := mm.mk()
		cfg.Cancellation = lc()
		cfg.Checkpoint = dynamicCheckpoint()
		row, err := tb.run(m, cfg)
		if err != nil {
			return fig, fmt.Errorf("ckpt-sweep/%s/dynamic: %w", mm.name, err)
		}
		row.X = float64(mi)
		fig.Series[len(intervals)].Rows = append(fig.Series[len(intervals)].Rows, row)
	}
	return fig, nil
}

// GVTPeriodAblation sweeps the GVT cadence, the knob trading memory and
// commit latency against control traffic.
func (tb Testbed) GVTPeriodAblation() (Figure, error) {
	fig := Figure{
		Name:   "gvt-period",
		Title:  "GVT period sweep (SMMP)",
		XLabel: "period(ms)",
		YLabel: "execution seconds",
	}
	s := Series{Name: "SMMP"}
	for _, p := range []time.Duration{500 * time.Microsecond, 1 * time.Millisecond,
		2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond} {
		m, cfg := tb.smmp(2000)
		cfg.GVTPeriod = p
		row, err := tb.run(m, cfg)
		if err != nil {
			return fig, fmt.Errorf("gvt-period/%s: %w", p, err)
		}
		row.X = float64(p) / float64(time.Millisecond)
		s.Rows = append(s.Rows, row)
	}
	fig.Series = []Series{s}
	return fig, nil
}

// ControlPeriodAblation sweeps the checkpoint controller's invocation period
// P, substantiating the Section 3 remark that control must not run so often
// that tuning overhead outweighs the better configuration.
func (tb Testbed) ControlPeriodAblation() (Figure, error) {
	fig := Figure{
		Name:   "ctl-period",
		Title:  "Checkpoint controller period sweep (SMMP, dynamic ckpt)",
		XLabel: "period(events)",
		YLabel: "execution seconds",
	}
	s := Series{Name: "SMMP"}
	for _, p := range []int{16, 64, 256, 1024, 4096} {
		m, cfg := tb.smmp(2000)
		cfg.Cancellation = lc()
		ck := dynamicCheckpoint()
		ck.Period = p
		cfg.Checkpoint = ck
		row, err := tb.run(m, cfg)
		if err != nil {
			return fig, fmt.Errorf("ctl-period/%d: %w", p, err)
		}
		row.X = float64(p)
		s.Rows = append(s.Rows, row)
	}
	fig.Series = []Series{s}
	return fig, nil
}

// DiskSensitivityAblation flips RAID's disks to order-sensitive service
// (head tracking) and compares cancellation strategies, demonstrating that
// the hit-ratio-driven selector adapts to the application rather than to a
// fixed rule.
func (tb Testbed) DiskSensitivityAblation() (Figure, error) {
	fig := Figure{
		Name:   "disk-sens",
		Title:  "RAID with order-sensitive disks: cancellation strategies",
		XLabel: "sensitive(0/1)",
		YLabel: "execution seconds",
	}
	variants := []struct {
		name string
		cc   gowarp.CancellationConfig
	}{{"AC", ac()}, {"LC", lc()}, {"DC", dc()}}
	for vi := range variants {
		fig.Series = append(fig.Series, Series{Name: variants[vi].name})
	}
	for xi, sensitive := range []bool{false, true} {
		for vi, v := range variants {
			requests := 500
			if tb.Quick {
				requests = 50
			}
			m := gowarp.NewRAID(gowarp.RAIDConfig{
				RequestsPerSource:   requests,
				StatePadding:        tb.StatePadding,
				OrderSensitiveDisks: sensitive,
			})
			cfg := tb.baseConfig(gowarp.VTime(1)<<40, tb.RAIDWindow)
			cfg.Cancellation = v.cc
			row, err := tb.run(m, cfg)
			if err != nil {
				return fig, fmt.Errorf("disk-sens/%v/%s: %w", sensitive, v.name, err)
			}
			row.X = float64(xi)
			fig.Series[vi].Rows = append(fig.Series[vi].Rows, row)
		}
	}
	return fig, nil
}

package exp

import (
	"fmt"

	"gowarp"
)

// smmpWide is the SMMP instance spread across more LPs than the paper's
// four-way partition: same 16 processors, so each LP hosts fewer objects and
// the LVT surface roughens faster — the workload where a mistuned optimism
// window actually hurts.
func (tb Testbed) smmpWide(requests, lps int) (*gowarp.Model, gowarp.Config) {
	if tb.Quick {
		requests /= 10
		if requests < 50 {
			requests = 50
		}
	}
	m := gowarp.NewSMMP(gowarp.SMMPConfig{
		Requests:     requests,
		LPs:          lps,
		StatePadding: tb.StatePadding,
	})
	cfg := tb.baseConfig(gowarp.VTime(1)<<40, tb.SMMPWindow)
	return m, cfg
}

// adaptiveOptimism is the controller tuning the opt figure measures: start
// at the model's tuned window with a decade of travel either way, a tight
// dead zone on the wasted-work ratio, and a two-GVT period.
func adaptiveOptimism(w gowarp.VTime) gowarp.OptimismConfig {
	return gowarp.OptimismConfig{
		Mode:      gowarp.OptimismAdaptive,
		Window:    w,
		Min:       w / 8,
		Max:       8 * w,
		Period:    2,
		HighWater: 0.3,
		LowWater:  0.1,
		MinSample: 64,
	}
}

// Optimism measures the sixth facet: execution time and wasted work for
// three static optimism windows — the model's hand-tuned one, a 4x-relaxed
// one, and unbounded optimism — against the adaptive controller, on a
// wide-partition SMMP (8 LPs) and RAID. The BENCH artifact's
// wasted_work_ratio column is the headline: adaptive should match or beat
// the best static window without knowing it in advance.
func (tb Testbed) Optimism() (Figure, error) {
	fig := Figure{
		Name:   "opt",
		Title:  "Adaptive optimism vs static windows (wasted work in BENCH json)",
		XLabel: "model(0=smmp8,1=raid)",
		YLabel: "execution seconds",
	}
	variants := []struct {
		name string
		mut  func(*gowarp.Config, gowarp.VTime)
	}{
		{"static", func(c *gowarp.Config, w gowarp.VTime) { c.Optimism.Window = w }},
		{"static4x", func(c *gowarp.Config, w gowarp.VTime) { c.Optimism.Window = 4 * w }},
		{"unbounded", func(c *gowarp.Config, _ gowarp.VTime) { c.Optimism.Window = 0 }},
		{"adaptive", func(c *gowarp.Config, w gowarp.VTime) { c.Optimism = adaptiveOptimism(w) }},
	}
	for vi := range variants {
		fig.Series = append(fig.Series, Series{Name: variants[vi].name})
	}
	models := []struct {
		name   string
		window gowarp.VTime
		mk     func() (*gowarp.Model, gowarp.Config)
	}{
		{"smmp8", tb.SMMPWindow, func() (*gowarp.Model, gowarp.Config) { return tb.smmpWide(2000, 8) }},
		{"raid", tb.RAIDWindow, func() (*gowarp.Model, gowarp.Config) { return tb.raid(500) }},
	}
	for mi, mm := range models {
		for vi, v := range variants {
			m, cfg := mm.mk()
			v.mut(&cfg, mm.window)
			row, err := tb.run(m, cfg)
			if err != nil {
				return fig, fmt.Errorf("opt/%s/%s: %w", mm.name, v.name, err)
			}
			row.Label = v.name
			row.X = float64(mi)
			fig.Series[vi].Rows = append(fig.Series[vi].Rows, row)
		}
	}
	return fig, nil
}

package exp

import (
	"gowarp"
)

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
// one, and unbounded optimism — against the adaptive controller, on RAID and
// on SMMP spread across 8 LPs instead of the paper's four (each LP hosts
// fewer objects and the LVT surface roughens faster — the workload where a
// mistuned window actually hurts). The BENCH artifact's wasted_work_ratio
// column is the headline: adaptive should match or beat the best static
// window without knowing it in advance.
func (tb Testbed) Optimism() (Figure, error) {
	return tb.sweep(Figure{
		Name:   "opt",
		Title:  "Adaptive optimism vs static windows (wasted work in BENCH json)",
		XLabel: "model(0=smmp8,1=raid)",
		YLabel: "execution seconds",
	}, []string{"static", "static4x", "unbounded", "adaptive"}, []float64{0, 1}, nil, func(x float64, s int) (*gowarp.Model, gowarp.Config) {
		// The baseline config's window is the model's tuned one.
		m, cfg := tb.paperModel([]string{"smmp8", "raid"}[int(x)])
		switch w := cfg.Optimism.Window; s {
		case 1:
			cfg.Optimism.Window = 4 * w
		case 2:
			cfg.Optimism.Window = 0
		case 3:
			cfg.Optimism = adaptiveOptimism(w)
		}
		return m, cfg
	})
}

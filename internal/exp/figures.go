package exp

import (
	"fmt"
	"time"

	"gowarp"
)

// Rates reproduces the Section 8 throughput scalars: committed events per
// second for SMMP and RAID under the all-static configuration (the paper
// reports 11,300 and 10,917 on its testbed).
func (tb Testbed) Rates() (Figure, error) {
	models := []string{"smmp", "raid"}
	return tb.sweep(Figure{
		Name:   "rates",
		Title:  "Committed-event rate, all-static configuration (Sec. 8)",
		XLabel: "model",
		YLabel: "seconds (rate in EXPERIMENTS.md)",
	}, models, []float64{0, 1}, nil, func(x float64, s int) (*gowarp.Model, gowarp.Config) {
		// Each model is its own series with one row, at x = its index.
		if int(x) != s {
			return nil, gowarp.Config{}
		}
		return tb.paperModel(models[s])
	})
}

// RatesCodec measures the state-codec facet: the Rates workloads run with
// the codec off and with delta+LZ encoding, so the BENCH artifact tracks
// both throughput and the stored checkpoint/capsule bytes each way. The
// interesting regression is bytes per committed event: delta+LZ should cut
// checkpoint+capsule bytes by well over 25% on these padded-state models.
func (tb Testbed) RatesCodec() (Figure, error) {
	codecs := []gowarp.CodecConfig{{}, {Mode: gowarp.CodecDelta, Compression: gowarp.LZCompression}}
	return tb.sweep(Figure{
		Name:   "rates_codec",
		Title:  "Committed-event rate and checkpoint bytes, codec off vs delta+LZ",
		XLabel: "model(0=smmp,1=raid)",
		YLabel: "execution seconds (bytes in BENCH json)",
	}, []string{"off", "delta+lz"}, []float64{0, 1}, nil, func(x float64, s int) (*gowarp.Model, gowarp.Config) {
		m, cfg := tb.paperModel([]string{"smmp", "raid"}[int(x)])
		cfg.Codec = codecs[s]
		return m, cfg
	})
}

// Fig5 reproduces Figure 5: normalized performance of dynamic check-pointing
// for RAID and SMMP. Three configurations per model: periodic check-pointing
// with aggressive cancellation (the 1.0 baseline), periodic with lazy, and
// dynamic check-pointing with lazy. Rows report execution seconds; the
// normalized bars are seconds(baseline)/seconds(variant).
func (tb Testbed) Fig5() (Figure, error) {
	return tb.sweep(Figure{
		Name:   "fig5",
		Title:  "Dynamic check-pointing (Fig. 5); normalize against column 1",
		XLabel: "model(0=raid,1=smmp)",
		YLabel: "execution seconds",
	}, []string{"PC+AC", "PC+LC", "DynCkpt+LC"}, []float64{0, 1}, nil, func(x float64, s int) (*gowarp.Model, gowarp.Config) {
		m, cfg := tb.paperModel([]string{"raid", "smmp"}[int(x)])
		cfg.Cancellation = lc()
		switch s {
		case 0:
			cfg.Cancellation = ac()
		case 2:
			cfg.Checkpoint = dynamicCheckpoint()
		}
		return m, cfg
	})
}

// Fig6 reproduces Figure 6: RAID execution time versus number of requests
// per source for the cancellation strategies AC, LC, DC, ST0.4, PS32, PA10.
func (tb Testbed) Fig6() (Figure, error) {
	strategies := []gowarp.CancellationConfig{ac(), lc(), dc(), st04(), ps(32), pa10()}
	return tb.sweep(Figure{
		Name:   "fig6",
		Title:  "RAID execution time vs requests (Fig. 6)",
		XLabel: "requests",
		YLabel: "execution seconds",
	}, []string{"AC", "LC", "DC", "ST0.4", "PS32", "PA10"}, []float64{500, 1000}, nil, func(x float64, s int) (*gowarp.Model, gowarp.Config) {
		m, cfg := tb.raid(int(x), false)
		cfg.Cancellation = strategies[s]
		return m, cfg
	})
}

// Fig7 reproduces Figure 7: SMMP execution time versus number of test
// vectors per processor for AC, LC, DC, PS64, PA10.
func (tb Testbed) Fig7() (Figure, error) {
	strategies := []gowarp.CancellationConfig{ac(), lc(), dc(), ps(64), pa10()}
	return tb.sweep(Figure{
		Name:   "fig7",
		Title:  "SMMP execution time vs test vectors (Fig. 7)",
		XLabel: "vectors",
		YLabel: "execution seconds",
	}, []string{"AC", "LC", "DC", "PS64", "PA10"}, []float64{2000, 5000, 10000}, nil, func(x float64, s int) (*gowarp.Model, gowarp.Config) {
		m, cfg := tb.smmp(int(x), 0)
		cfg.Cancellation = strategies[s]
		return m, cfg
	})
}

// dymaAges is the aggregate-age sweep of Figures 8 and 9 in microseconds (log
// spaced; our testbed's microsecond..tens-of-milliseconds range plays the
// role of the paper's 1..1000 axis — the interesting region is set by each
// model's physical-message inter-arrival time per LP pair).
var dymaAges = []float64{10, 30, 100, 300, 1000, 3000, 10000, 30000}

// dyma runs one DyMA figure (execution time versus aggregate age) for the
// named paper model.
func (tb Testbed) dyma(name, title, model string) (Figure, error) {
	fig := Figure{
		Name:   name,
		Title:  title,
		XLabel: "age(us)",
		YLabel: "execution seconds",
	}
	// The unaggregated baseline is age-independent; measure once and
	// replicate across the sweep, as the paper's flat line does.
	m, cfg := tb.paperModel(model)
	cfg.Aggregation = gowarp.AggregationConfig{Policy: gowarp.NoAggregation}
	base, err := tb.run(m, cfg)
	if err != nil {
		return fig, fmt.Errorf("%s/unaggregated: %w", name, err)
	}

	policies := []gowarp.AggregationPolicy{gowarp.FAW, gowarp.SAAW}
	fig, err = tb.sweep(fig, []string{"FAW", "SAAW"}, dymaAges, nil, func(x float64, s int) (*gowarp.Model, gowarp.Config) {
		m, cfg := tb.paperModel(model)
		cfg.Aggregation = gowarp.AggregationConfig{Policy: policies[s], Window: time.Duration(x) * time.Microsecond}
		return m, cfg
	})
	if err != nil {
		return fig, err
	}
	unagg := Series{Name: "Unaggregated"}
	for _, x := range dymaAges {
		base.X = x
		unagg.Rows = append(unagg.Rows, base)
	}
	fig.Series = append(fig.Series, unagg)
	return fig, nil
}

// Fig8 reproduces Figure 8: SMMP execution time versus aggregate age for
// FAW, SAAW and the unaggregated kernel.
func (tb Testbed) Fig8() (Figure, error) {
	return tb.dyma("fig8", "SMMP DyMA: execution time vs aggregate age (Fig. 8)", "smmp")
}

// Fig9 reproduces Figure 9: RAID execution time versus aggregate age.
func (tb Testbed) Fig9() (Figure, error) {
	return tb.dyma("fig9", "RAID DyMA: execution time vs aggregate age (Fig. 9)", "raid")
}

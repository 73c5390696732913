package exp

import (
	"fmt"
	"os"
	"time"

	"gowarp"
)

// scaleSizes are the swept object counts: three decades in the full sweep
// (quick mode drops the top decade to keep CI minutes sane — the recorded
// artifact says which was run via its X values).
func (tb Testbed) scaleSizes() []int {
	if tb.Quick {
		return []int{1_000, 10_000, 100_000}
	}
	return []int{1_000, 10_000, 100_000, 1_000_000}
}

// scalePhold is the scaling workload: sparse PHOLD (O(1) memory per object)
// with one token per object and high locality, partitioned onto LPs that grow
// with the object count — so at a worker per LP the goroutine count grows
// with the model while a fixed pool's stays put. Hot > 0
// adds the hot-spot skew: that fraction of hops target object 0, piling load
// onto one LP.
func (tb Testbed) scalePhold(objects int, hot float64) (*gowarp.Model, gowarp.Config) {
	lps := objects / 256
	if lps < 8 {
		lps = 8
	}
	if lps > 512 {
		lps = 512
	}
	m := gowarp.NewPHOLD(gowarp.PHOLDConfig{
		Objects:         objects,
		TokensPerObject: 1,
		MeanDelay:       10,
		Locality:        0.9,
		LPs:             lps,
		Seed:            7,
		Sparse:          true,
		HotSpot:         hot,
	})
	end := gowarp.VTime(300)
	if tb.Quick {
		end = 120
	}
	// The figure measures engine overhead — scheduling, queueing, memory —
	// not the simulated network, so the communication cost model is zero and
	// events burn no synthetic CPU.
	cfg := gowarp.DefaultConfig(end)
	cfg.GVTPeriod = 5 * time.Millisecond
	cfg.Optimism.Window = 100
	cfg.Checkpoint = gowarp.CheckpointConfig{Mode: gowarp.PeriodicCheckpointing, Interval: 4}
	return m, cfg
}

// scaleWorkers is the fixed pool width of the scale figure: the paper-style
// "N threads" a million-object model is hosted on.
const scaleWorkers = 8

// Scale measures the dispatcher at a fixed width against a worker per LP as
// the model grows from 10^3 to 10^6 objects, on a uniform and a
// hot-spot-skewed sparse PHOLD. Four series: lp / pool8 (uniform) and
// lp-hot / pool8-hot (skewed). The BENCH artifact's allocs_per_event and
// bytes_per_event columns are the flat-memory regression signal; the skewed
// pair is the headline — least-timestamp-first scheduling plus on-line
// LP->worker remapping should beat a worker per LP when the load
// concentrates.
func (tb Testbed) Scale() (Figure, error) {
	fig := Figure{
		Name:   "scale",
		Title:  fmt.Sprintf("Dispatcher at %d workers vs a worker per LP", scaleWorkers),
		XLabel: "objects",
		YLabel: "execution seconds",
	}
	variants := []struct {
		name    string
		hot     float64
		workers int
	}{
		{"lp", 0, 0},
		{"pool8", 0, scaleWorkers},
		{"lp-hot", 0.2, 0},
		{"pool8-hot", 0.2, scaleWorkers},
	}
	for _, v := range variants {
		fig.Series = append(fig.Series, Series{Name: v.name})
	}
	for _, objects := range tb.scaleSizes() {
		for vi, v := range variants {
			// The skewed worker-per-LP rows above 10^4 objects run for
			// many minutes (the hot LP pins GVT, so the per-LP GVT/fossil
			// overhead multiplies) — that collapse is the figure's point,
			// but it busts the quick budget; the full sweep keeps them.
			if tb.Quick && v.hot > 0 && objects > 10_000 {
				fmt.Fprintf(os.Stderr, "  scale: %-9s objects=%-8d skipped under -quick (minutes-long row; run the full sweep)\n",
					v.name, objects)
				continue
			}
			m, cfg := tb.scalePhold(objects, v.hot)
			if cfg.Workers = v.workers; v.workers == 0 {
				cfg.Workers = m.NumLPs() // the lp series: a worker per LP, not the default width
			}
			row, err := tb.run(m, cfg)
			if err != nil {
				return fig, fmt.Errorf("scale/%s/%d: %w", v.name, objects, err)
			}
			row.Label = v.name
			row.X = float64(objects)
			fig.Series[vi].Rows = append(fig.Series[vi].Rows, row)
			// A 10^6-object sweep runs for many minutes; narrate each point
			// so an interactive run (or CI log) shows where the time goes.
			fmt.Fprintf(os.Stderr, "  scale: %-9s objects=%-8d %8.3fs  %.0f ev/s  eff=%.3f\n",
				v.name, objects, row.Seconds, row.Rate, row.Stats.Efficiency())
		}
	}
	return fig, nil
}

package exp

import (
	"fmt"
	"os"
	"time"

	"gowarp"
)

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
	// The full sweep spans three decades; -quick drops the top one (the
	// artifact's X values say which was run).
	sizes := []float64{1_000, 10_000, 100_000, 1_000_000}
	if tb.Quick {
		sizes = sizes[:3]
	}
	hot := []float64{0, 0, 0.2, 0.2}
	workers := []int{0, scaleWorkers, 0, scaleWorkers}
	series := []string{"lp", "pool8", "lp-hot", "pool8-hot"}
	// A 10^6-object sweep runs for many minutes; each point is narrated on
	// stderr so an interactive run (or CI log) shows where the time goes.
	return tb.sweep(Figure{
		Name:   "scale",
		Title:  fmt.Sprintf("Dispatcher at %d workers vs a worker per LP", scaleWorkers),
		XLabel: "objects",
		YLabel: "execution seconds",
	}, series, sizes, os.Stderr, func(x float64, s int) (*gowarp.Model, gowarp.Config) {
		// The skewed worker-per-LP rows above 10^4 objects run for many
		// minutes (the hot LP pins GVT, so the per-LP GVT/fossil overhead
		// multiplies) — that collapse is the figure's point, but it busts
		// the quick budget; the full sweep keeps them.
		if tb.Quick && hot[s] > 0 && x > 10_000 {
			fmt.Fprintf(os.Stderr, "  scale: %-9s objects=%-8g skipped under -quick (minutes-long row; run the full sweep)\n",
				series[s], x)
			return nil, gowarp.Config{}
		}
		m, cfg := tb.scalePhold(int(x), hot[s])
		if cfg.Workers = workers[s]; workers[s] == 0 {
			cfg.Workers = m.NumLPs() // the lp series: a worker per LP, not the default width
		}
		return m, cfg
	})
}

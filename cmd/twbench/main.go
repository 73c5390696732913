// Command twbench regenerates the paper's tables and figures (and this
// repository's ablations) on the simulated network-of-workstations testbed,
// printing one text table per figure.
//
// Usage:
//
//	twbench -exp all                 # every experiment (long)
//	twbench -exp fig6,fig8 -repeat 3 # selected figures, averaged
//	twbench -exp fig5 -quick         # 10x smaller workloads
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"gowarp/internal/exp"
	"gowarp/internal/telemetry"
)

// benchResult flattens a figure into the BENCH_*.json artifact tracking the
// performance trajectory across commits.
func benchResult(fig exp.Figure) telemetry.BenchResult {
	out := telemetry.BenchResult{Name: fig.Name, Title: fig.Title}
	for _, s := range fig.Series {
		for _, r := range s.Rows {
			out.Rows = append(out.Rows, telemetry.BenchRow{
				Series:          s.Name,
				X:               r.X,
				Seconds:         r.Seconds,
				EventsPerSec:    r.Rate,
				Efficiency:      r.Stats.Efficiency(),
				WastedWorkRatio: r.Stats.WastedWorkRatio(),
				Rollbacks:       r.Stats.Rollbacks,
				CheckpointBytes: r.Stats.CheckpointBytes,
				CapsuleBytes:    r.Stats.CapsuleBytes,
				AllocsPerEvent:  r.AllocsPerEvent,
				BytesPerEvent:   r.BytesPerEvent,
			})
		}
	}
	return out
}

func main() {
	var (
		which   = flag.String("exp", "all", "comma-separated experiments: rates,rates_codec,opt,scale,fig5,fig6,fig7,fig8,fig9,ckpt-sweep,gvt-period,ctl-period,disk-sens,tw-vs-cmb or 'all'")
		repeat  = flag.Int("repeat", 1, "measured runs averaged per data point")
		quick   = flag.Bool("quick", false, "shrink workloads ~10x (shape checks)")
		rates   = flag.Bool("rates", false, "also print committed-event rates per point")
		details = flag.Bool("details", false, "print per-point counter details")
		csvDir  = flag.String("csv", "", "also write <dir>/<figure>.csv per experiment")
		jsonDir = flag.String("json", "", "also write <dir>/BENCH_<figure>.json machine-readable results per experiment")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile (after the runs) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "twbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "twbench: cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "twbench: %v\n", err)
				return
			}
			defer f.Close()
			// The allocs profile records every allocation since process
			// start, which is what a hot-path hunt wants (the default
			// heap profile only shows live objects).
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "twbench: mem profile: %v\n", err)
			}
		}()
	}

	tb := exp.Default()
	tb.Repeat = *repeat
	tb.Quick = *quick

	runners := map[string]func() (exp.Figure, error){
		"rates":       tb.Rates,
		"rates_codec": tb.RatesCodec,
		"opt":         tb.Optimism,
		"fig5":        tb.Fig5,
		"fig6":        tb.Fig6,
		"fig7":        tb.Fig7,
		"fig8":        tb.Fig8,
		"fig9":        tb.Fig9,
		"ckpt-sweep":  tb.CheckpointSweep,
		"gvt-period":  tb.GVTPeriodAblation,
		"ctl-period":  tb.ControlPeriodAblation,
		"disk-sens":   tb.DiskSensitivityAblation,
		"tw-vs-cmb":   tb.ConservativeComparison,
		"scale":       tb.Scale,
	}
	order := []string{"rates", "rates_codec", "opt", "scale", "fig5", "fig6", "fig7", "fig8", "fig9",
		"ckpt-sweep", "gvt-period", "ctl-period", "disk-sens", "tw-vs-cmb"}

	var names []string
	if *which == "all" {
		names = order
	} else {
		names = strings.Split(*which, ",")
		sort.Slice(names, func(i, j int) bool { return index(order, names[i]) < index(order, names[j]) })
	}

	for _, name := range names {
		run, ok := runners[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "twbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		start := time.Now()
		fig, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "twbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(fig.Render())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, fig.Name+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "twbench: writing %s: %v\n", path, err)
				os.Exit(1)
			}
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_"+fig.Name+".json")
			if err := telemetry.WriteJSON(path, benchResult(fig)); err != nil {
				fmt.Fprintf(os.Stderr, "twbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *rates || *details {
			for _, s := range fig.Series {
				for _, r := range s.Rows {
					fmt.Printf("  %-12s x=%-8g %8.3fs  %10.0f ev/s  eff=%.3f rb=%d\n",
						s.Name, r.X, r.Seconds, r.Rate, r.Stats.Efficiency(), r.Stats.Rollbacks)
					if *details {
						for _, line := range strings.Split(strings.TrimRight(r.Stats.Report(), "\n"), "\n") {
							fmt.Printf("      %s\n", line)
						}
					}
				}
			}
		}
		fmt.Printf("  [%s took %s]\n\n", fig.Name, time.Since(start).Round(time.Millisecond))
	}
}

func index(order []string, name string) int {
	for i, n := range order {
		if n == strings.TrimSpace(name) {
			return i
		}
	}
	return len(order)
}

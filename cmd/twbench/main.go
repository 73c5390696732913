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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
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

// experiment is one -exp name and the testbed method that produces its figure.
type experiment struct {
	name string
	run  func() (exp.Figure, error)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, checks every requested
// experiment name, then runs the experiments in their fixed order, and
// returns the exit status. Returning rather than exiting lets the deferred
// profile writes happen on every path. The tests call it in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which   = fs.String("exp", "all", "comma-separated experiments: rates,rates_codec,opt,scale,fig5,fig6,fig7,fig8,fig9,ckpt-sweep,gvt-period,ctl-period,disk-sens or 'all'")
		repeat  = fs.Int("repeat", 1, "measured runs averaged per data point")
		quick   = fs.Bool("quick", false, "shrink workloads ~10x (shape checks)")
		rates   = fs.Bool("rates", false, "also print committed-event rates per point")
		details = fs.Bool("details", false, "print per-point counter details")
		csvDir  = fs.String("csv", "", "also write <dir>/<figure>.csv per experiment")
		jsonDir = fs.String("json", "", "also write <dir>/BENCH_<figure>.json machine-readable results per experiment")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile (after the runs) to this file")
	)
	if err := fs.Parse(args); err != nil {
		// The flag package has said why; -h is not a failure.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "twbench: %v\n", err)
		return 1
	}

	tb := exp.Default()
	tb.Repeat = *repeat
	tb.Quick = *quick
	experiments := []experiment{
		{"rates", tb.Rates},
		{"rates_codec", tb.RatesCodec},
		{"opt", tb.Optimism},
		{"scale", tb.Scale},
		{"fig5", tb.Fig5},
		{"fig6", tb.Fig6},
		{"fig7", tb.Fig7},
		{"fig8", tb.Fig8},
		{"fig9", tb.Fig9},
		{"ckpt-sweep", tb.CheckpointSweep},
		{"gvt-period", tb.GVTPeriodAblation},
		{"ctl-period", tb.ControlPeriodAblation},
		{"disk-sens", tb.DiskSensitivityAblation},
	}
	// Every name is checked before anything runs: a typo in the last name
	// must not cost the minutes of the first.
	if *which != "all" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*which, ",") {
			name = strings.TrimSpace(name)
			if !slices.ContainsFunc(experiments, func(e experiment) bool { return e.name == name }) {
				fmt.Fprintf(stderr, "twbench: unknown experiment %q\n", name)
				return 2
			}
			want[name] = true
		}
		experiments = slices.DeleteFunc(experiments, func(e experiment) bool { return !want[e.name] })
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("cpu profile: %w", err))
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
				fmt.Fprintf(stderr, "twbench: %v\n", err)
				return
			}
			defer f.Close()
			// The allocs profile records every allocation since process
			// start, which is what a hot-path hunt wants (the default
			// heap profile only shows live objects).
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "twbench: mem profile: %v\n", err)
			}
		}()
	}

	for _, e := range experiments {
		start := time.Now()
		fig, err := e.run()
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, fig.Render())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, fig.Name+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				return fail(fmt.Errorf("writing %s: %w", path, err))
			}
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_"+fig.Name+".json")
			if err := telemetry.WriteJSON(path, benchResult(fig)); err != nil {
				return fail(err)
			}
		}
		if *rates || *details {
			for _, s := range fig.Series {
				for _, r := range s.Rows {
					fmt.Fprintf(stdout, "  %-12s x=%-8g %8.3fs  %10.0f ev/s  eff=%.3f rb=%d\n",
						s.Name, r.X, r.Seconds, r.Rate, r.Stats.Efficiency(), r.Stats.Rollbacks)
					if *details {
						for _, line := range strings.Split(strings.TrimRight(r.Stats.Report(), "\n"), "\n") {
							fmt.Fprintf(stdout, "      %s\n", line)
						}
					}
				}
			}
		}
		fmt.Fprintf(stdout, "  [%s took %s]\n\n", fig.Name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

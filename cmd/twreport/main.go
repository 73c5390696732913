// Command twreport is the rollback observatory's post-mortem renderer: it
// consumes a JSONL kernel trace written by twsim -trace (and optionally the
// run-summary JSON written by twsim -json-out), reconstructs rollback
// causality — linking each anti-message-caused rollback to the episode that
// emitted the anti-message — and prints the top-K cascade trees with their
// root cause and cost, the virtual-time roughness timeline, the
// rollback-depth histogram, and the per-LP efficiency table.
//
// Examples:
//
//	twsim -model smmp -trace storm.jsonl -json-out run.json
//	twreport -trace storm.jsonl -summary run.json
//	twreport -trace storm.jsonl -top 10 -html report.html
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gowarp/internal/observe"
	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, reads the trace and writes the
// report to stdout (and the page to -html's file), and returns the exit
// status. The tests call it in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceFile = fs.String("trace", "", "JSONL kernel trace from twsim -trace (required)")
		summary   = fs.String("summary", "", "run-summary JSON from twsim -json-out (optional: adds per-LP efficiency, roughness aggregates, object placement)")
		topK      = fs.Int("top", 5, "number of cascade trees to print, costliest first")
		htmlOut   = fs.String("html", "", "also write an HTML report (cascade trees, roughness SVG timeline, per-LP table) to this file")
	)
	if err := fs.Parse(args); err != nil {
		// The flag package has said why; -h is not a failure.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "twreport: %v\n", err)
		return 1
	}

	if *traceFile == "" {
		fmt.Fprintln(stderr, "twreport: -trace is required (a JSONL trace from twsim -trace)")
		fs.Usage()
		return 2
	}

	f, err := os.Open(*traceFile)
	if err != nil {
		return fail(err)
	}
	events, kinds, err := telemetry.ReadJSONL(f)
	f.Close()
	if err != nil {
		return fail(err)
	}

	var sum *stats.RunRecord
	if *summary != "" {
		if sum, err = stats.ReadRunRecord(*summary); err != nil {
			return fail(err)
		}
	}

	rep := observe.NewReport(events, sum)
	rep.KindCounts = kinds
	if err := rep.WriteText(stdout, *topK); err != nil {
		return fail(err)
	}

	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return fail(err)
		}
		err = writeHTML(f, rep, *topK)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "twreport: wrote %s\n", *htmlOut)
	}
	return 0
}

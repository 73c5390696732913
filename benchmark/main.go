// Command benchmark is gowarp's claims benchmark: five engine-overhead
// workloads (four of them gated), four bounded end-to-end metrics plus the
// failed-run share, per-layer drivers and a traced run. See README.md for the
// tables; the contract with the driver that runs it is BENCHMARK.json at the
// repo root.
//
//	go run ./benchmark                       every workload, end-to-end metrics
//	go run ./benchmark -workload phold-lp    one workload
//	go run ./benchmark -trace 1              plus layer drivers and a traced run each
//	go run ./benchmark -layers               the layer drivers alone
//	go run ./benchmark -check                the whole set twice, A/A agreement
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gowarp"
)

type options struct {
	seed     uint64
	seconds  float64
	workload string
	trace    bool
	layers   bool
	check    bool
	// The smoke test alone sets the rest: div divides every workload's size
	// and every driver's iteration count, runs fixes the number of runs of
	// each kind.
	div  int
	runs int
}

// resultsDir is where latest.json and trace-<workload>.json go, relative to
// the repository root the benchmark is run from.
const resultsDir = "benchmark/results"

func main() {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	var trace int
	fs.Uint64Var(&o.seed, "seed", 7, "every model and driver seed derives from this")
	fs.Float64Var(&o.seconds, "seconds", 16, "per workload, keep starting timed runs until this much time has passed (at least 3 runs)")
	fs.StringVar(&o.workload, "workload", "", "run one workload and end with the driver's one-line JSON result")
	fs.IntVar(&trace, "trace", 0, "1: also run the layer drivers and one traced run per workload; the JSON result then carries the per-layer metrics")
	fs.BoolVar(&o.layers, "layers", false, "run the layer drivers alone")
	fs.BoolVar(&o.check, "check", false, "run the set twice and fail if any end-to-end median moves by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o.trace = trace != 0
	o.div = 1

	rep, err := runSet(o, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	if o.check {
		second, err := runSet(o, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !printCheck(stdout, rep, second) {
			code = 1
		}
		rep = second
	}
	if err := rep.write(resultsDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if o.workload != "" {
		// The driver reads the last line of stdout.
		line, err := json.Marshal(rep.contractLine(o.trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// environment is recorded in every result file.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"pool_workers"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	LoadAvg1   float64 `json:"load_avg_1m_at_start"`
	TotalWallS float64 `json:"total_wall_s"`
}

// report is one run of the set: what latest.json and baseline.json hold.
type report struct {
	Env       environment        `json:"environment"`
	Workloads []*workloadResult  `json:"workloads"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

func newEnvironment(o options) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    min(runtime.NumCPU(), 4),
		Seed:       o.seed,
		Seconds:    o.seconds,
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &env.LoadAvg1)
	}
	return env
}

// modelSeed derives a workload's model seed from the benchmark seed, so one
// -seed re-runs every claim on unseen inputs.
func modelSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	z := seed + h.Sum64() + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) | 1 // never 0: the models replace a zero seed
}

// runSet measures the selected workloads once, printing as it goes.
func runSet(o options, stdout io.Writer) (*report, error) {
	start := time.Now()
	rep := &report{Env: newEnvironment(o)}
	selected := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return nil, err
		}
		selected = []workload{*w}
	}
	if o.layers || o.trace {
		child, err := spawn(childSpec{Workload: "layer drivers", Mode: modeLayers, Seed: o.seed, Div: o.div}, time.Minute)
		if err != nil {
			return nil, err
		}
		rep.Layers = child.Layers
		printLayers(stdout, rep.Layers)
	}
	if driversOnly := o.layers && !o.trace && o.workload == ""; !driversOnly {
		for i := range selected {
			res := measure(&selected[i], o, rep.Env.Workers, rep.Layers)
			res.print(stdout)
			rep.Workloads = append(rep.Workloads, res)
		}
	}
	rep.Env.TotalWallS = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "\ncommit %s, %s, %d CPUs, GOMAXPROCS %d, %d pool workers, seed %d, load %.2f, %.1f s\n",
		rep.Env.Commit, rep.Env.GoVersion, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.Workers,
		rep.Env.Seed, rep.Env.LoadAvg1, rep.Env.TotalWallS)
	return rep, nil
}

// write stores the report as latest.json and each traced workload's spans as
// trace-<workload>.json.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range r.Workloads {
		if w.trace == nil {
			continue
		}
		if err := gowarp.WriteJSON(filepath.Join(dir, "trace-"+w.Name+".json"), w.trace); err != nil {
			return err
		}
	}
	return gowarp.WriteJSON(filepath.Join(dir, "latest.json"), r)
}

// contractLine is the driver's result object for a one-workload run: the
// end-to-end metrics, or with tracing on every per-layer metric.
func (r *report) contractLine(traced bool) map[string]any {
	w := r.Workloads[0]
	metrics := map[string]any{}
	put := func(name, unit string, v float64) {
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	if traced {
		for _, d := range perLayer {
			v, ok := r.Layers[d.Name]
			if !ok {
				v = w.Traced[d.Name]
			}
			put(d.Name, d.Unit, v)
		}
	} else {
		for _, d := range endToEnd {
			put(d.Name, d.Unit, w.Metrics[d.Name].Median)
		}
	}
	return map[string]any{
		"correct":   w.Failed == 0,
		"attempted": w.Attempted,
		"failed":    w.Failed,
		"metrics":   metrics,
	}
}

package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one metric with its unit and direction. Bound is the share
// of the earlier median by which an end-to-end metric may worsen before it
// counts as a regression; Floor, in the metric's unit, is the difference below
// which -check lets any share pass (ISSUE 12's "or 8 MB", "or 0.05 s";
// BENCHMARK.json has no such field, so the driver's own comparison is by
// share alone). BENCHMARK.json repeats these tables; the smoke test keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Floor  float64
}

// endToEnd are the bounded metrics, per workload. The first two are ratios of
// a timed run to the sequential run made just before it: the reference host
// changes speed by 30 to 60% for minutes at a time, which a ratio of two
// neighbouring runs cancels and a rate does not (README, "Run-to-run
// agreement"). BENCHMARK.json repeats this table; the smoke test keeps the
// two in step.
var endToEnd = []metricDef{
	{"speedup_vs_seq", "ratio", "higher", 0.25, 0},
	{"cpu_vs_seq", "ratio", "lower", 0.25, 0},
	{"peak_rss_mb", "MB", "lower", 0.25, 8},
	{"setup_s", "s", "lower", 0.25, 0.05},
}

// reported are the metrics every workload prints, in this order: the bounded
// ones, then the rates they are made from — what a twsim user sees, and what
// a claim of a gain is made on with alternating pairs, but too dependent on
// the host's speed of the minute to bound — then failed_run_share, which has
// bound 0 and travels as the attempted/failed counts of the driver's result
// line (the contract wants metrics that are never 0).
var reported = []string{
	"speedup_vs_seq", "cpu_vs_seq", "peak_rss_mb", "setup_s",
	"events_per_s", "cpu_s_per_mevent", "failed_run_share",
}

// summary is a metric's distribution over the runs of one workload.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, samples []float64) summary {
	q1, q3 := quartiles(samples)
	return summary{Unit: unit, Median: median(samples), Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the driver applies to its own runs.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		return median(v), median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Ungated: only peak_rss_mb is bounded on this workload.
	Ungated bool `json:"ungated,omitempty"`
	// Reference is the sequential kernel's answer for this seed: every run
	// must commit this many events and reach this state hash. RefWallS is the
	// median duration of the sequential runs.
	RefCommitted int64   `json:"reference_committed"`
	RefHash      uint64  `json:"reference_hash"`
	RefWallS     float64 `json:"reference_wall_s"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	Metrics map[string]summary `json:"metrics"`
	// Traced holds the per-layer metrics of the traced run (with -trace 1).
	Traced map[string]float64 `json:"traced,omitempty"`

	trace *traceFile
}

// Runs per workload in one invocation: rounds of a sequential run, a timed
// run and null runs until -seconds have passed, then traced runs for a
// quarter of -seconds; each kind at least the count given here. The null runs
// of a round go on until nullBudget has passed: spread over the invocation
// like this, their median does not hang on one second of the host's mood. The
// first pair is a warm-up and is thrown away (see measure).
const (
	minRounds     = 3
	minNullRuns   = 2 // per round
	minTracedRuns = 1
	nullBudget    = 250 * time.Millisecond
)

// measure runs the workload's sequential, timed, null and (with o.trace)
// traced child processes and folds them into a result. layers holds the layer
// drivers' numbers for the traced run's computed shares.
func measure(w *workload, o options, workers int, layers map[string]float64) *workloadResult {
	res := &workloadResult{Name: w.Name, Why: w.Why, Ungated: w.Ungated, Metrics: map[string]summary{}}
	spec := childSpec{Workload: w.Name, Seed: modelSeed(o.seed, w.Name), Div: o.div, Workers: workers}
	// A child still running after ten times the workload's nominal duration
	// is killed and counted as failed.
	timeout := time.Duration(10 * w.ExpectS * float64(time.Second))
	defer func() {
		res.Metrics["failed_run_share"] = summarize("fraction", []float64{float64(res.Failed) / float64(res.Attempted)})
	}()

	// try runs one child and books it; a run counts as failed when it
	// errors, is killed, or disagrees with the sequential reference, which
	// is the first sequential run's answer.
	haveRef := false
	try := func(mode string) *childReport {
		spec.Mode = mode
		res.Attempted++
		rep, err := spawn(spec, timeout)
		if err == nil && !haveRef && mode == modeSeq {
			res.RefCommitted, res.RefHash, haveRef = rep.Committed, rep.Hash, true
		}
		if err == nil && mode != modeNull && (rep.Committed != res.RefCommitted || rep.Hash != res.RefHash) {
			err = fmt.Errorf("%s %s: committed %d hash %#x, sequential reference %d %#x",
				w.Name, mode, rep.Committed, rep.Hash, res.RefCommitted, res.RefHash)
		}
		if err != nil {
			res.Failed++
			res.Failures = append(res.Failures, err.Error())
			return nil
		}
		return rep
	}
	// repeat calls once until budget has passed and at least atLeast calls
	// have succeeded (exactly o.runs, when the smoke test sets it). A failure
	// ends it: the invocation must not spend its time on a workload that hangs.
	repeat := func(atLeast int, budget time.Duration, once func() bool) {
		if o.runs > 0 {
			atLeast, budget = o.runs, 0
		}
		n := 0
		for start := time.Now(); (n < atLeast || time.Since(start) < budget) && once(); n++ {
		}
	}

	// The first pair is checked like any other but not timed. On the
	// reference host (a Firecracker guest) the hypervisor takes free guest
	// memory back within seconds and charges about 17 us to back a page again
	// against 1.6 us for a page it still backs: the first run after a pause
	// pays that for every page it touches (phold-scale: 6.5 s against 4.2 s),
	// the runs straight after it reuse the pages it freed. Every timed run
	// still pays its own first touch to the guest kernel, as a twsim user does.
	if try(modeSeq) == nil || try(modeRun) == nil {
		return res
	}
	var seqs, runs, nulls, traced []*childReport
	collect := func(mode string, into *[]*childReport) func() bool {
		return func() bool {
			rep := try(mode)
			if rep != nil {
				*into = append(*into, rep)
			}
			return rep != nil
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	repeat(minRounds, budget, func() bool {
		if !collect(modeSeq, &seqs)() || !collect(modeRun, &runs)() {
			return false
		}
		before := res.Failed
		repeat(minNullRuns, nullBudget, collect(modeNull, &nulls))
		return res.Failed == before
	})
	var speedup, cpuRatio, eps, cpu, rss, setup, seqWall []float64
	for i, r := range runs {
		speedup = append(speedup, seqs[i].WallS/r.WallS)
		cpuRatio = append(cpuRatio, r.CPUS/seqs[i].CPUS)
		eps = append(eps, float64(r.Committed)/r.WallS)
		cpu = append(cpu, r.CPUS/float64(r.Committed)*1e6)
		rss = append(rss, r.PeakRSSMB)
		seqWall = append(seqWall, seqs[i].WallS)
	}
	for _, r := range nulls {
		setup = append(setup, r.WallS)
	}
	res.RefWallS = median(seqWall)
	res.Metrics["speedup_vs_seq"] = summarize("ratio", speedup)
	res.Metrics["cpu_vs_seq"] = summarize("ratio", cpuRatio)
	res.Metrics["peak_rss_mb"] = summarize("MB", rss)
	res.Metrics["setup_s"] = summarize("s", setup)
	res.Metrics["events_per_s"] = summarize("1/s", eps)
	res.Metrics["cpu_s_per_mevent"] = summarize("s", cpu)

	if o.trace && len(runs) > 0 {
		repeat(minTracedRuns, budget/4, collect(modeTrace, &traced))
		if len(traced) > 0 {
			res.Traced, res.trace = tracedMetrics(res, layers, runs, traced)
		}
	}
	return res
}

func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", r.Name, r.Why)
	if r.Ungated {
		fmt.Fprintf(w, "  reported, not gated: only peak_rss_mb is bounded on this workload\n")
	}
	fmt.Fprintf(w, "  reference: %d committed, hash %#x, sequential %.3f s (median)\n", r.RefCommitted, r.RefHash, r.RefWallS)
	fmt.Fprintf(w, "  %-22s %-9s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, name := range reported {
		s := r.Metrics[name]
		fmt.Fprintf(w, "  %-22s %-9s %14.6g %14.6g %14.6g %4d\n", name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(w, "  runs attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.Traced == nil {
		return
	}
	fmt.Fprintf(w, "  traced run (medians; end-to-end numbers above are untraced):\n")
	for _, d := range perLayer {
		if v, ok := r.Traced[d.Name]; ok {
			fmt.Fprintf(w, "    %-36s %-9s %14.6g\n", d.Name, d.Unit, v)
		}
	}
	fmt.Fprintf(w, "  computed share of CPU by layer (driver ns/op x traced op count, an estimate):\n")
	for _, c := range r.trace.Computed {
		fmt.Fprintf(w, "    %-36s %6.1f%%  %s\n", c.Layer, 100*c.CPUShare, c.How)
	}
}

func printLayers(w io.Writer, layers map[string]float64) {
	fmt.Fprintf(w, "\nlayer drivers (median of %d batches)\n", layerBatches)
	for _, d := range perLayer {
		if v, ok := layers[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %-9s %14.6g\n", d.Name, d.Unit, v)
		}
	}
}

// printCheck prints two runs of the set side by side and reports whether
// every bounded median of the second lies within its bound, or its floor, of
// the first.
func printCheck(w io.Writer, a, b *report) bool {
	ok := true
	fmt.Fprintf(w, "\nA/A check: second run against first\n")
	fmt.Fprintf(w, "  %-12s %-18s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "change", "bound")
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.Name].Median, rb.Metrics[d.Name].Median
			change := math.Inf(1)
			if ma != 0 {
				change = (mb - ma) / ma
			}
			bound, verdict := fmt.Sprintf("%.0f%%", 100*d.Bound), ""
			if ra.Ungated && d.Name != "peak_rss_mb" {
				bound = "none"
			} else if math.Abs(change) > d.Bound && math.Abs(mb-ma) > d.Floor {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Fprintf(w, "  %-12s %-18s %14.6g %14.6g %+7.1f%% %7s%s\n",
				ra.Name, d.Name, ma, mb, 100*change, bound, verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "  %-12s failed runs: %d then %d  DISAGREE\n", ra.Name, ra.Failed, rb.Failed)
			ok = false
		}
	}
	if ok {
		fmt.Fprintln(w, "A/A check passed")
	} else {
		fmt.Fprintln(w, "A/A check FAILED")
	}
	return ok
}

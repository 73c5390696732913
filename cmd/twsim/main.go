// Command twsim runs one of the bundled simulation models on the Time Warp
// kernel under a chosen configuration and prints the execution statistics.
//
// Examples:
//
//	twsim -model smmp -requests 2000 -cancel dynamic -ckpt dynamic
//	twsim -model raid -requests 500 -agg saaw -agg-window 1ms
//	twsim -model phold -end 100000 -lps 4 -verify
//	twsim -model raid -ckpt dynamic -cancel dynamic -trace out.json -trace-format chrome
//	twsim -model phold -metrics-addr 127.0.0.1:9090 -json-out run.json
//	twsim -model phold -partition greedy -balance=dynamic,period=4 -audit -verify
//	twsim -model smmp -state-padding 1024 -codec delta,lz
//	twsim -model smmp -optimism=adaptive,window=2000 -json-out run.json
//	twsim -model smmp -trace storm.jsonl -json-out run.json   # then: twreport -trace storm.jsonl -summary run.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gowarp"
	"gowarp/metricshttp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the model and writes the
// report to stdout and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(err error) int {
		fmt.Fprintf(stderr, "twsim: %v\n", err)
		return 1
	}
	var (
		modelName = fs.String("model", "phold", "model: smmp, raid, phold, qnet, logic")
		lps       = fs.Int("lps", 4, "logical processes (phold only; smmp/raid use the paper's partitions)")
		requests  = fs.Int("requests", 500, "requests per generator (smmp: test vectors per processor; raid: requests per source; 0 = unbounded, so smmp and raid then need -end)")
		end       = fs.Int64("end", 0, "virtual end time (0 = run until the model drains)")
		seed      = fs.Uint64("seed", 1, "model random seed")

		cancelMode = fs.String("cancel", "aggressive", "cancellation: aggressive, lazy, dynamic")
		filter     = fs.Int("filter-depth", 16, "dynamic cancellation filter depth n")
		a2l        = fs.Float64("a2l", 0.45, "aggressive-to-lazy threshold")
		l2a        = fs.Float64("l2a", 0.2, "lazy-to-aggressive threshold")
		ps         = fs.Int("ps", 0, "freeze strategy after N comparisons (0 = never)")
		pa         = fs.Int("pa", 0, "freeze to aggressive after N consecutive misses (0 = never)")

		ckptMode = fs.String("ckpt", "periodic", "check-pointing: periodic, dynamic")
		interval = fs.Int("ckpt-interval", 1, "checkpoint interval chi (initial value when dynamic)")

		aggMode   = fs.String("agg", "none", "aggregation: none, faw, saaw")
		aggWindow = fs.Duration("agg-window", 100*time.Microsecond, "aggregation window (FAW) or initial window (SAAW)")

		partitionMode = fs.String("partition", "", "override the model's object placement: block, rr, greedy (greedy probes a sequential prefix and partitions the measured communication graph)")

		balanceSpec = fs.String("balance", "off", "load-balance facet spec: off, dynamic, or dynamic,period=N,high=F,low=F,moves=N,min-sample=N")
		optSpec     = fs.String("optimism", "off", "optimism facet spec: off, static,window=N, or adaptive[,window=N,min=N,max=N,period=N,high=F,low=F,min-sample=N]")

		codecSpec = fs.String("codec", "off", "state-codec facet spec: off, lz, full[,lz], delta[,lz], dynamic[,lz]")

		transportFlag = fs.String("transport", "inproc", "transport spec: inproc, or tcp,rank=N,peers=HOST:PORT;HOST:PORT;... [,listen=ADDR][,timeout=DUR] — start every rank of one run with the same peers list and its own rank; rank 0 gathers the full results")

		schedFlag = fs.String("sched", "pool", "dispatcher width spec: pool[,workers=N] (N workers share the hosted LPs and read and write the tcp transport's sockets; default N = min(hosted LPs, GOMAXPROCS, max(1, NumCPU / ranks on this host)): a worker per hosted LP up to this rank's share of the machine's cores), or lp (one worker per hosted LP whatever the cores)")

		perMsg    = fs.Duration("msg-cost", 0, "simulated per-physical-message CPU overhead")
		eventCost = fs.Duration("event-cost", 0, "simulated CPU burn per event")
		gvtPeriod = fs.Duration("gvt-period", 10*time.Millisecond, "GVT computation period")
		padding   = fs.Int("state-padding", 0, "bytes of padded state per object")

		verify     = fs.Bool("verify", false, "also run the sequential kernel and compare committed events and final states")
		auditRun   = fs.Bool("audit", false, "check the Time Warp invariants on-line during the run; nonzero exit on any violation")
		perObject  = fs.Bool("per-object", false, "print per-object strategy/interval summary")
		sequential = fs.Bool("sequential", false, "run only the sequential reference kernel")

		traceFile   = fs.String("trace", "", "write a structured kernel trace (rollbacks, controller adjustments, GVT cycles, flushes) to this file")
		traceFormat = fs.String("trace-format", "jsonl", "trace format: jsonl, chrome (load in chrome://tracing or Perfetto)")
		traceCap    = fs.Int("trace-cap", 0, "per-LP trace ring capacity in events (0 = default; oldest events are overwritten when full)")
		metricsAddr = fs.String("metrics-addr", "", "serve live metrics on this address while the run executes (/metrics Prometheus text, /debug/vars expvar)")
		jsonOut     = fs.String("json-out", "", "write a machine-readable run summary JSON to this file")

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile (taken at exit) to this file")
	)
	if err := fs.Parse(args); err != nil {
		// The flag package has said why; -h is not a failure.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A positional argument ends flag parsing, so every flag after it would
	// be silently ignored. Refuse leftovers instead of quietly running a
	// different configuration.
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q (twsim takes flags only, and would ignore every flag after it)", fs.Arg(0)))
	}
	// A threshold no hit ratio crosses would leave the selector silently off.
	for _, th := range []struct {
		name string
		v    float64
	}{{"a2l", *a2l}, {"l2a", *l2a}} {
		if math.IsNaN(th.v) || math.IsInf(th.v, 0) {
			return fail(fmt.Errorf("-%s wants a finite number, got %v", th.name, th.v))
		}
	}

	// The kernel and the models read a negative count or duration as a
	// default or as no bound, so a negative one would run another
	// configuration without a word.
	for _, name := range []string{"requests", "filter-depth", "ps", "pa", "ckpt-interval", "agg-window",
		"msg-cost", "event-cost", "gvt-period", "state-padding", "trace-cap"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return fail(fmt.Errorf("-%s must not be negative, got %s", name, v))
		}
	}
	// SMMP and RAID with no request bound generate until the end time,
	// and with no -end that is 2^40: the run would never finish.
	if (*modelName == "smmp" || *modelName == "raid") && *requests == 0 && *end == 0 {
		return fail(fmt.Errorf("-requests 0 lets %s generate without bound; give -end too", *modelName))
	}

	tspec, err := gowarp.ParseTransportSpec(*transportFlag)
	if err != nil {
		return fail(err)
	}
	if tspec.Kind == "tcp" && *sequential {
		return fail(fmt.Errorf("-sequential runs in one process; drop -transport"))
	}
	sspec, err := gowarp.ParseSchedSpec(*schedFlag)
	if err != nil {
		return fail(err)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
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
				fmt.Fprintf(stderr, "twsim: %v\n", err)
				return
			}
			defer f.Close()
			// "allocs" records cumulative allocations since process start
			// (the default heap profile shows only live objects), which is
			// what a hot-path allocation hunt wants.
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "twsim: mem profile: %v\n", err)
			}
		}()
	}

	endTime := gowarp.VTime(*end)
	if endTime == 0 {
		endTime = gowarp.VTime(1) << 40 // effectively: run until the model drains
	}

	var m *gowarp.Model
	switch *modelName {
	case "smmp":
		m = gowarp.NewSMMP(gowarp.SMMPConfig{
			Requests: *requests, Seed: *seed, StatePadding: *padding,
		})
	case "raid":
		m = gowarp.NewRAID(gowarp.RAIDConfig{
			RequestsPerSource: *requests, Seed: *seed, StatePadding: *padding,
		})
	case "phold":
		if *end == 0 {
			endTime = 100_000
		}
		m = gowarp.NewPHOLD(gowarp.PHOLDConfig{
			Objects: 32, TokensPerObject: 4, MeanDelay: 20,
			Locality: 0.5, LPs: *lps, Seed: *seed, StatePadding: *padding,
		})
	case "qnet":
		if *end == 0 {
			endTime = 100_000
		}
		m = gowarp.NewQNet(gowarp.QNetConfig{
			Stations: 16, Jobs: 32, LPs: *lps, Seed: *seed, StatePadding: *padding,
		})
	case "logic":
		if *end == 0 {
			endTime = 50_000
		}
		m = gowarp.NewLogicPipeline(8, 6, gowarp.LogicConfig{
			LPs: *lps, Seed: *seed, StatePadding: *padding,
		})
	default:
		fmt.Fprintf(stderr, "twsim: unknown model %q\n", *modelName)
		return 2
	}

	if *partitionMode != "" {
		if err := repartition(m, *partitionMode, endTime); err != nil {
			return fail(err)
		}
	}

	if *sequential {
		res, err := gowarp.RunSequential(m, endTime)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "sequential: %d events in %s (%.0f ev/s)\n",
			res.EventsExecuted, res.Elapsed.Round(time.Millisecond),
			float64(res.EventsExecuted)/res.Elapsed.Seconds())
		return 0
	}

	cfg := gowarp.DefaultConfig(endTime)
	cfg.GVTPeriod = *gvtPeriod
	cfg.EventCost = *eventCost
	cfg.Workers = sspec.Workers
	cfg.Cost = gowarp.CostModel{PerMessage: *perMsg, PerByte: 10 * time.Nanosecond}

	switch *cancelMode {
	case "aggressive":
		cfg.Cancellation = gowarp.CancellationConfig{Mode: gowarp.AggressiveCancellation}
	case "lazy":
		cfg.Cancellation = gowarp.CancellationConfig{Mode: gowarp.LazyCancellation}
	case "dynamic":
		cfg.Cancellation = gowarp.CancellationConfig{
			Mode: gowarp.DynamicCancellation, FilterDepth: *filter,
			A2LThreshold: *a2l, L2AThreshold: *l2a,
			PermanentAfter: *ps, PermanentAggressiveRun: *pa,
		}
	default:
		return fail(fmt.Errorf("unknown cancellation mode %q", *cancelMode))
	}

	switch *ckptMode {
	case "periodic":
		cfg.Checkpoint = gowarp.CheckpointConfig{Mode: gowarp.PeriodicCheckpointing, Interval: *interval}
	case "dynamic":
		cfg.Checkpoint = gowarp.CheckpointConfig{Mode: gowarp.DynamicCheckpointing, Interval: *interval, Period: 256}
	default:
		return fail(fmt.Errorf("unknown checkpoint mode %q", *ckptMode))
	}

	switch *aggMode {
	case "none":
		cfg.Aggregation = gowarp.AggregationConfig{Policy: gowarp.NoAggregation}
	case "faw":
		cfg.Aggregation = gowarp.AggregationConfig{Policy: gowarp.FAW, Window: *aggWindow}
	case "saaw":
		cfg.Aggregation = gowarp.AggregationConfig{Policy: gowarp.SAAW, Window: *aggWindow}
	default:
		return fail(fmt.Errorf("unknown aggregation mode %q", *aggMode))
	}

	if cfg.Balance, err = gowarp.ParseBalanceSpec(*balanceSpec); err != nil {
		return fail(err)
	}
	if cfg.Codec, err = gowarp.ParseCodecSpec(*codecSpec); err != nil {
		return fail(err)
	}
	if cfg.Optimism, err = gowarp.ParseOptSpec(*optSpec); err != nil {
		return fail(err)
	}

	if tspec.Kind == "tcp" {
		tr, terr := tspec.NewTransport(m.NumLPs(), cfg.Cost)
		if terr != nil {
			return fail(terr)
		}
		cfg.Transport = tr
		if tspec.Rank != 0 && *verify {
			fmt.Fprintf(stderr, "twsim: rank %d: -verify compares full results and runs on rank 0 only; skipping\n", tspec.Rank)
			*verify = false
		}
	}

	var tracer *gowarp.Tracer
	if *traceFile != "" {
		if *traceFormat != "jsonl" && *traceFormat != "chrome" {
			return fail(fmt.Errorf("unknown trace format %q (want jsonl or chrome)", *traceFormat))
		}
		tracer = gowarp.NewTracer(*traceCap)
		cfg.Tracer = tracer
	}
	if *metricsAddr != "" {
		reg := gowarp.NewMetricsRegistry()
		srv, err := metricshttp.Serve(*metricsAddr, reg)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		cfg.Metrics = reg
		fmt.Fprintf(stderr, "twsim: serving metrics on http://%s/metrics\n", srv.Addr())
	}

	var auditor *gowarp.Auditor
	if *auditRun {
		auditor = gowarp.NewAuditor()
		cfg.Audit = auditor
	}

	res, err := gowarp.Run(m, cfg)
	if err != nil {
		return fail(err)
	}

	if tracer != nil {
		if err := writeTrace(tracer, *traceFile, *traceFormat); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace: %d events to %s (%s format, %d overwritten)\n",
			len(tracer.Events()), *traceFile, *traceFormat, tracer.Dropped())
	}
	if *jsonOut != "" || *perObject {
		gowarp.SortPerObject(res.PerObject)
	}
	if *jsonOut != "" {
		// The kernel has filled the record with what it knows; what only the
		// command line knows goes in here.
		res.Flags = map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { res.Flags[f.Name] = f.Value.String() })
		res.Transport = tspec.Kind
		if err := gowarp.WriteJSON(*jsonOut, res); err != nil {
			return fail(err)
		}
	}
	prefix := ""
	if res.Ranks > 1 {
		prefix = fmt.Sprintf("[rank %d/%d] ", res.Rank, res.Ranks)
	}
	fmt.Fprintf(stdout, "%s%s: %d committed events in %s (%.0f ev/s), final GVT %s\n",
		prefix, m.Name, res.Stats.EventsCommitted, res.Elapsed.Round(time.Millisecond),
		res.EventRate(), res.GVT)
	if n := len(res.PerWorker); sspec.Workers == 0 && res.HostRanks > 1 {
		// The transport divided the default width: say what by.
		s := "s"
		if n == 1 {
			s = ""
		}
		fmt.Fprintf(stdout, "%s%d worker%s: %d cores shared by %d ranks on this host\n",
			prefix, n, s, runtime.NumCPU(), res.HostRanks)
	}
	fmt.Fprint(stdout, res.Stats.Report())
	for _, w := range res.PerWorker {
		fmt.Fprintf(stdout, "%sworker %d: %d events, %.3f s busy, %d LPs owned, %d adoptions, %d held rounds\n",
			prefix, w.Worker, w.Events, w.BusySeconds, w.OwnedLPs, w.Adoptions, w.HeldRounds)
	}

	if *perObject {
		fmt.Fprintln(stdout, "per-object summary:")
		for _, po := range res.PerObject {
			fmt.Fprintf(stdout, "  %-18s rollbacks=%-6d HR=%.3f strategy=%-10s chi=%d\n",
				po.Name, po.Rollbacks, po.HitRatio, po.FinalStrategy, po.FinalCheckpointInt)
		}
	}

	if *verify {
		seq, err := gowarp.RunSequential(m, endTime)
		if err != nil {
			return fail(err)
		}
		ok := res.Stats.EventsCommitted == seq.EventsExecuted
		states := true
		for i := range seq.FinalStates {
			if !reflect.DeepEqual(res.FinalStates[i], seq.FinalStates[i]) {
				states = false
				break
			}
		}
		fmt.Fprintf(stdout, "verify: committed %d vs sequential %d (%s); final states %s\n",
			res.Stats.EventsCommitted, seq.EventsExecuted, okStr(ok), okStr(states))
		if !ok || !states {
			return 1
		}
	}

	if auditor != nil {
		fmt.Fprint(stdout, auditor.Report())
		if err := auditor.Err(); err != nil {
			return fail(err)
		}
	}
	return 0
}

// repartition replaces m's static object placement in place, keeping the
// model's LP count. The greedy mode probes a bounded sequential prefix of
// the model to measure the communication graph, then partitions it.
func repartition(m *gowarp.Model, mode string, endTime gowarp.VTime) error {
	lps := 0
	for _, p := range m.Partition {
		if p >= lps {
			lps = p + 1
		}
	}
	n := len(m.Partition)
	switch mode {
	case "block":
		m.Partition = gowarp.BlockPartition(n, lps)
	case "rr":
		m.Partition = gowarp.RoundRobinPartition(n, lps)
	case "greedy":
		g, err := gowarp.ProbeGraph(m, endTime, 20000)
		if err != nil {
			return fmt.Errorf("partition probe: %w", err)
		}
		m.Partition = gowarp.GreedyPartition(g, lps)
	default:
		return fmt.Errorf("unknown partition mode %q (want block, rr or greedy)", mode)
	}
	return nil
}

func writeTrace(tracer *gowarp.Tracer, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if format == "chrome" {
		err = tracer.WriteChrome(f)
	} else {
		err = tracer.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func okStr(ok bool) string {
	if ok {
		return "MATCH"
	}
	return strings.ToUpper("mismatch")
}

package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"gowarp"
)

// workload is one benchmark input: a model family, a size and an engine
// configuration. Every workload runs with the zero CostModel and zero
// EventCost, so the kernel — not the spin loop standing in for the paper's
// Ethernet — is what the clock sees.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (also in BENCHMARK.json).
	Why string
	// Engine is "pool" (worker-pool dispatcher) or "lp" (goroutine per LP).
	Engine string
	// Ranks > 1 splits the LPs over that many TCP loopback ranks, each its
	// own gowarp.Run goroutine inside the child process.
	Ranks int
	// ExpectS is the nominal duration in seconds of one child process of this
	// workload on the 2-core reference host, sequential reference included;
	// the kill timeout is ten times it.
	ExpectS float64
	// Ungated marks a workload that is measured and reported like the others
	// but held to peak_rss_mb alone: -check shows its other metrics without a
	// bound, and BENCHMARK.json, which bounds every metric on every workload
	// it lists, leaves it out (README, "Run-to-run agreement", has the reasons).
	Ungated bool
	// model builds the model at the given size divisor (1 = benchmark size).
	model func(seed uint64, div int) *gowarp.Model
	// config returns the run configuration for the given end time divisor.
	config func(div int, workers int) *gowarp.ConfigBuilder
}

// sparsePHOLD is the PHOLD family every phold-* workload shares: one token
// per object, mean delay 10, O(1) memory per object.
func sparsePHOLD(objects, lps int, locality float64) func(uint64, int) *gowarp.Model {
	return func(seed uint64, div int) *gowarp.Model {
		n, l := objects/div, lps
		if n < 64 {
			n = 64
		}
		if l > n/8 {
			l = n / 8
		}
		return gowarp.NewPHOLD(gowarp.PHOLDConfig{
			Objects:         n,
			TokensPerObject: 1,
			MeanDelay:       10,
			Locality:        locality,
			LPs:             l,
			Seed:            seed,
			Sparse:          true,
		})
	}
}

// pholdConfig is the static configuration of the PHOLD workloads: optimism
// window 100, periodic check-pointing every 4 events, aggressive
// cancellation, no aggregation.
func pholdConfig(end gowarp.VTime) func(int, int) *gowarp.ConfigBuilder {
	return func(div, workers int) *gowarp.ConfigBuilder {
		return gowarp.NewConfig(scaleEnd(end, div)).
			WithOptimism(gowarp.OptimismStatic, 100).
			WithCheckpoint(gowarp.PeriodicCheckpointing, 4).
			WithCancellation(gowarp.AggressiveCancellation).
			WithWorkers(workers)
	}
}

func scaleEnd(end gowarp.VTime, div int) gowarp.VTime {
	if end /= gowarp.VTime(div); end < 20 {
		end = 20
	}
	return end
}

// phold-scale, smmp-facets and phold-tcp2 have the sizes ISSUE 12 gave them
// and run for 4 to 5 seconds on the 2-core reference host, three or four
// rounds to a `-seconds 16` invocation: smmp-facets commits 14% more events
// per second at this length than at a third of it and phold-tcp2 8% more, so a
// shorter run would time their start-up transient. phold-pool and phold-lp
// run at 3/10 and 1/3 of the issue's end time (1.4 and 2 seconds, four or
// five rounds): their rates are the same at both lengths (README), and one
// sequential run of the full phold-pool takes 9 seconds of the 30 the
// driver's schedule leaves an invocation.
var workloads = []workload{
	{
		Name:    "phold-pool",
		Why:     "cache-resident sparse PHOLD on the worker pool: pq, event.Pool and dispatcher rekey do the work; statesave, cancel, codec and wire do almost none",
		Engine:  "pool",
		ExpectS: 3,
		model:   sparsePHOLD(4096, 16, 0.9),
		config:  pholdConfig(4500),
	},
	{
		Name:    "phold-lp",
		Why:     "same model on 8 goroutine-per-LP LPs, rollback-heavy: inbox channels, restore, anti-messages and cancel.OnRollback dominate; a pool-only gain that costs this engine shows here",
		Engine:  "lp",
		ExpectS: 2.5,
		model:   sparsePHOLD(4096, 8, 0.9),
		config:  pholdConfig(2000),
	},
	{
		Name:    "phold-scale",
		Why:     "100000 objects on 390 LPs: setup, first-touch memory and GC dominate (the O(LPs x objects) local table, RecordSent growth), little of which exists in phold-pool",
		Engine:  "pool",
		ExpectS: 6,
		Ungated: true,
		model:   sparsePHOLD(100_000, 390, 0.9),
		config:  pholdConfig(150),
	},
	{
		Name:    "smmp-facets",
		Why:     "the paper's SMMP with 16 KiB states and every on-line facet on (dynamic checkpoint and cancellation, SAAW, delta codec): statesave, codec, selector and aggregation do the work PHOLD bypasses",
		Engine:  "lp",
		ExpectS: 4.5,
		model: func(seed uint64, div int) *gowarp.Model {
			return gowarp.NewSMMP(gowarp.SMMPConfig{
				Requests:     30_000 / div,
				StatePadding: 16 << 10,
				LPs:          4,
				Seed:         seed,
			})
		},
		config: func(div, workers int) *gowarp.ConfigBuilder {
			// The model drains after its last request; the end time only has
			// to lie beyond that.
			return gowarp.NewConfig(1<<40).
				WithOptimism(gowarp.OptimismStatic, 2000).
				WithCheckpoint(gowarp.DynamicCheckpointing, 4).
				WithCancellation(gowarp.DynamicCancellation).
				WithAggregation(gowarp.SAAW, 0).
				WithCodec(gowarp.CodecDelta, gowarp.NoCompression)
		},
	},
	{
		Name:    "phold-tcp2",
		Why:     "8 LPs over 2 TCP loopback ranks at locality 0.5: the only workload where wire framing, the TCP send path and cross-rank GVT carry traffic",
		Engine:  "lp",
		Ranks:   2,
		ExpectS: 5,
		model:   sparsePHOLD(4096, 8, 0.5),
		config:  pholdConfig(3000),
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run builds the model(s) and executes the workload once. endOverride > 0
// replaces the end time (the null run uses 1). wrap, when non-nil, lets the
// traced run decorate the model and the configuration of each rank. The
// returned duration covers model build plus gowarp.Run on every rank — the
// timed phase a twsim user pays.
func (w *workload) run(seed uint64, div, workers int, endOverride gowarp.VTime,
	wrap func(rank int, m *gowarp.Model, b *gowarp.ConfigBuilder)) (*gowarp.Result, time.Duration, time.Duration, error) {
	if w.Engine != "pool" {
		workers = 0
	}
	ranks := w.Ranks
	if ranks < 1 {
		ranks = 1
	}
	start := time.Now()
	models := make([]*gowarp.Model, ranks)
	cfgs := make([]gowarp.Config, ranks)
	var lns []net.Listener
	var addrs []string
	if ranks > 1 {
		// Pre-bound listeners, so every rank knows real ports before any
		// transport starts.
		for r := 0; r < ranks; r++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s: listen: %w", w.Name, err)
			}
			lns = append(lns, ln)
			addrs = append(addrs, ln.Addr().String())
		}
	}
	for r := 0; r < ranks; r++ {
		models[r] = w.model(seed, div)
		b := w.config(div, workers)
		if ranks > 1 {
			tr, err := gowarp.NewTCPTransport(gowarp.TCPTransportConfig{
				Rank: r, Addrs: addrs, NumLPs: models[r].NumLPs(), Listener: lns[r],
			})
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s: rank %d transport: %w", w.Name, r, err)
			}
			b.WithTransport(tr)
		}
		if wrap != nil {
			wrap(r, models[r], b)
		}
		cfgs[r] = b.Build()
		if endOverride > 0 {
			cfgs[r].EndTime = endOverride
		}
	}
	build := time.Since(start)

	results := make([]*gowarp.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = gowarp.Run(models[r], cfgs[r])
		}(r)
	}
	results[0], errs[0] = gowarp.Run(models[0], cfgs[0])
	wg.Wait()
	wall := time.Since(start)
	for r, err := range errs {
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s: rank %d: %w", w.Name, r, err)
		}
	}
	// Rank 0 gathers every rank's final states and counters.
	return results[0], build, wall, nil
}

// runSequential executes the workload's model on the sequential reference
// kernel: its committed count and state hash define correctness.
func (w *workload) runSequential(seed uint64, div int) (*gowarp.SeqResult, error) {
	cfg := w.config(div, 0).Build()
	return gowarp.RunSequential(w.model(seed, div), cfg.EndTime)
}

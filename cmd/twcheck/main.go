// Command twcheck is the kernel correctness sweep: it drives every bundled
// model (SMMP, RAID, PHOLD, QNet) through the differential oracle — a
// sequential reference run, then an audited parallel Time Warp run per cell
// of the checkpointing x cancellation x aggregation configuration matrix,
// plus migration legs (phold-mig, smmp-mig) that re-run the matrix on a
// deliberately skewed partition with the dynamic load balancer
// migrating objects mid-run, plus codec legs (phold-codec, smmp-codec,
// smmp-codec-mig) that re-run it with delta checkpointing and LZ capsule
// compression on, plus an observability leg (smmp-obs) that re-runs it with
// a tracer attached, recording rollbacks and the kernel's roughness samples —
// observation must never perturb simulation semantics — plus adaptive-optimism
// legs (smmp-opt, phold-opt-mig) that re-run it with the on-line optimism-window
// controller steering the bounded time window mid-run, alone and composed
// with migration and the codec, plus worker-pool legs (phold-pool,
// smmp-pool-mig, phold-default) that re-run it with the LPs folded onto fewer
// dispatcher workers, or onto as many as the kernel defaults to on this
// machine — the dispatcher schedules when LPs run, never what they commit.
// Every other leg runs a worker per LP, the widest interleaving. Any
// divergence in committed events or final states, or any runtime invariant
// violation, fails the sweep with a nonzero exit.
//
// A separate multi-process leg (-model multiproc, which needs -twsim pointing
// at a built binary) spawns two twsim ranks over TCP loopback — at a worker
// per LP, at two workers per rank and at the default width — and checks each
// coordinator's artifact — committed events and final state hash — against a
// solo in-process run of the same model and seed.
//
// Examples:
//
//	twcheck                      # all models, the 9-cell diagonal
//	twcheck -full                # all models, the full 27-cell matrix
//	twcheck -model phold -v      # one model, per-cell table
//	twcheck -model multiproc -twsim ./twsim   # two-process TCP oracle leg
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/apps/qnet"
	"gowarp/internal/apps/raid"
	"gowarp/internal/apps/smmp"
	"gowarp/internal/audit/oracle"
	"gowarp/internal/codec"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// check is one model family's oracle scenario.
type check struct {
	name  string
	build func(seed uint64) *model.Model
	// end is the virtual end time (drain models use a horizon past every
	// event they generate).
	end vtime.Time
	// balance, when dynamic, runs every cell with the dynamic load
	// balancer on — the migration legs of the sweep.
	balance core.BalanceConfig
	// codec, when not Off, runs every cell with the state-codec facet on —
	// the delta-checkpoint/compression legs of the sweep.
	codec codec.Config
	// observe runs every cell with a tracer attached (trace rings for
	// rollback attribution, the system ring for roughness samples) —
	// observation must never change simulation semantics.
	observe bool
	// optimism is every cell's optimism facet: a static window keeps
	// contentious models fast, and the adaptive legs of the sweep run with
	// the on-line controller steering the bounded time window.
	optimism core.OptimismConfig
	// workers is every cell's dispatcher width, as oracle.Options.Workers
	// spells it: 0 a worker per LP, n > 0 the LPs folded onto n workers,
	// oracle.DefaultWidth whatever the kernel picks — the pool legs of the
	// sweep.
	workers int
}

// skew rewrites part so LP 0 hosts almost everything (each other LP keeps
// one object, as the partition must stay dense) — the deliberately bad
// placement that gives the migration legs something to repair.
func skew(part []int, lps int) {
	keep := make(map[int]int)
	for i, p := range part {
		keep[p] = i
	}
	for i := range part {
		part[i] = 0
	}
	for p := 1; p < lps; p++ {
		if i, ok := keep[p]; ok {
			part[i] = p
		}
	}
}

// aggressiveBalance is the controller tuning for the migration legs: fire
// often, tolerate little imbalance, move up to two objects per firing.
var aggressiveBalance = core.BalanceConfig{
	Mode:      core.BalanceDynamic,
	Period:    2,
	HighWater: 1.15,
	LowWater:  1.05,
	MaxMoves:  2,
	MinSample: 32,
}

// adaptiveOptimism is the controller tuning for the optimism legs: fire at
// every GVT application with a low sample floor so short oracle runs move
// the window in both directions, and clamps tight enough that a tightened
// window actually throttles these small models.
var adaptiveOptimism = core.OptimismConfig{
	Mode:      core.OptimismAdaptive,
	Window:    500,
	Min:       50,
	Max:       4000,
	Period:    1,
	HighWater: 0.3,
	LowWater:  0.1,
	Factor:    2,
	MinSample: 16,
}

var checks = []check{
	{
		name: "phold",
		build: func(seed uint64) *model.Model {
			return phold.New(phold.Config{
				Objects: 16, TokensPerObject: 3, MeanDelay: 10,
				Locality: 0.2, LPs: 4, Seed: seed,
			})
		},
		end: 1200, optimism: core.OptimismConfig{Window: 100},
	},
	{
		name: "qnet",
		build: func(seed uint64) *model.Model {
			return qnet.New(qnet.Config{
				Stations: 12, Jobs: 24, TransitDelay: 5,
				Locality: 0.3, LPs: 4, Seed: seed,
			})
		},
		end: 1500, optimism: core.OptimismConfig{Window: 200},
	},
	{
		name: "smmp",
		build: func(seed uint64) *model.Model {
			return smmp.New(smmp.Config{Requests: 60, Seed: seed})
		},
		end: 1 << 40, optimism: core.OptimismConfig{Window: 2000},
	},
	{
		name: "raid",
		build: func(seed uint64) *model.Model {
			return raid.New(raid.Config{RequestsPerSource: 30, Seed: seed})
		},
		end: 1 << 40, optimism: core.OptimismConfig{Window: 2000},
	},
	{
		name: "phold-mig",
		build: func(seed uint64) *model.Model {
			m := phold.New(phold.Config{
				Objects: 16, TokensPerObject: 3, MeanDelay: 10,
				Locality: 0.2, LPs: 4, Seed: seed,
			})
			skew(m.Partition, 4)
			return m
		},
		end: 2400, optimism: core.OptimismConfig{Window: 100}, balance: aggressiveBalance,
	},
	{
		name: "smmp-mig",
		build: func(seed uint64) *model.Model {
			m := smmp.New(smmp.Config{Requests: 60, Seed: seed})
			skew(m.Partition, 4)
			return m
		},
		end: 1 << 40, optimism: core.OptimismConfig{Window: 2000}, balance: aggressiveBalance,
	},
	{
		name: "smmp-obs",
		build: func(seed uint64) *model.Model {
			return smmp.New(smmp.Config{Requests: 60, Seed: seed})
		},
		end: 1 << 40, optimism: core.OptimismConfig{Window: 2000}, observe: true,
	},
	{
		name: "smmp-opt",
		build: func(seed uint64) *model.Model {
			return smmp.New(smmp.Config{Requests: 60, Seed: seed})
		},
		end: 1 << 40, optimism: adaptiveOptimism,
	},
	{
		name: "phold-opt-mig",
		build: func(seed uint64) *model.Model {
			m := phold.New(phold.Config{
				Objects: 16, TokensPerObject: 3, MeanDelay: 10,
				Locality: 0.2, LPs: 4, Seed: seed, StatePadding: 256,
			})
			skew(m.Partition, 4)
			return m
		},
		end: 2400, balance: aggressiveBalance,
		codec:    codec.Config{Mode: codec.Dynamic, Compression: codec.LZ},
		optimism: adaptiveOptimism,
	},
	{
		name: "phold-pool",
		build: func(seed uint64) *model.Model {
			return phold.New(phold.Config{
				Objects: 16, TokensPerObject: 3, MeanDelay: 10,
				Locality: 0.2, LPs: 4, Seed: seed,
			})
		},
		end: 1200, optimism: core.OptimismConfig{Window: 100}, workers: 2,
	},
	{
		name: "phold-default",
		build: func(seed uint64) *model.Model {
			return phold.New(phold.Config{
				Objects: 16, TokensPerObject: 3, MeanDelay: 10,
				Locality: 0.2, LPs: 4, Seed: seed,
			})
		},
		end: 1200, optimism: core.OptimismConfig{Window: 100}, workers: oracle.DefaultWidth,
	},
	{
		name: "smmp-pool-mig",
		build: func(seed uint64) *model.Model {
			m := smmp.New(smmp.Config{Requests: 60, Seed: seed})
			skew(m.Partition, 4)
			return m
		},
		end: 1 << 40, optimism: core.OptimismConfig{Window: 2000}, balance: aggressiveBalance, workers: 3,
	},
	{
		name: "phold-codec",
		build: func(seed uint64) *model.Model {
			return phold.New(phold.Config{
				Objects: 16, TokensPerObject: 3, MeanDelay: 10,
				Locality: 0.2, LPs: 4, Seed: seed, StatePadding: 256,
			})
		},
		end: 1200, optimism: core.OptimismConfig{Window: 100},
		codec: codec.Config{Mode: codec.Dynamic, Compression: codec.LZ},
	},
	{
		name: "smmp-codec",
		build: func(seed uint64) *model.Model {
			return smmp.New(smmp.Config{Requests: 60, Seed: seed, StatePadding: 256})
		},
		end: 1 << 40, optimism: core.OptimismConfig{Window: 2000},
		codec: codec.Config{Mode: codec.Delta, Compression: codec.LZ},
	},
	{
		name: "smmp-codec-mig",
		build: func(seed uint64) *model.Model {
			m := smmp.New(smmp.Config{Requests: 60, Seed: seed, StatePadding: 256})
			skew(m.Partition, 4)
			return m
		},
		end: 1 << 40, optimism: core.OptimismConfig{Window: 2000}, balance: aggressiveBalance,
		codec: codec.Config{Mode: codec.Delta, Compression: codec.LZ},
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the sweep (or the multiproc
// leg) writing verdicts to stdout and failures to stderr, and returns the exit
// status. The tests call it in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		full      = fs.Bool("full", false, "run the full 27-cell matrix (default: the 9-cell diagonal covering every policy value)")
		modelName = fs.String("model", "", "restrict the sweep to one model: phold, qnet, smmp, raid, phold-mig, smmp-mig, smmp-obs, smmp-opt, phold-opt-mig, phold-pool, phold-default, smmp-pool-mig, phold-codec, smmp-codec, smmp-codec-mig, multiproc")
		twsimBin  = fs.String("twsim", "", "path to a built twsim binary, required by the multiproc leg (which spawns two OS processes over TCP loopback)")
		seed      = fs.Uint64("seed", 1, "model random seed")
		gvtPeriod = fs.Duration("gvt-period", 200*time.Microsecond, "GVT period for the parallel legs")
		verbose   = fs.Bool("v", false, "print the full per-cell table for every model")
	)
	if err := fs.Parse(args); err != nil {
		// The flag package has said why; -h is not a failure.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cells := oracle.Diagonal()
	if *full {
		cells = oracle.Matrix()
	}

	failed := 0
	ran := 0
	// The multiproc leg spawns real twsim processes rather than driving the
	// in-process oracle, so it runs only when selected explicitly.
	if *modelName == "multiproc" {
		if err := runMultiproc(stdout, *twsimBin, *seed, *verbose); err != nil {
			fmt.Fprintf(stderr, "twcheck: multiproc: %v\n", err)
			return 1
		}
		return 0
	}
	for _, c := range checks {
		if *modelName != "" && c.name != *modelName {
			continue
		}
		ran++
		rep, err := oracle.Run(c.build(*seed), oracle.Options{
			Name:      c.name,
			EndTime:   c.end,
			GVTPeriod: *gvtPeriod,
			Balance:   c.balance,
			Codec:     c.codec,
			Observe:   c.observe,
			Optimism:  c.optimism,
			Workers:   c.workers,
			Cells:     cells,
		})
		if err != nil {
			fmt.Fprintf(stderr, "twcheck: %s: %v\n", c.name, err)
			failed++
			continue
		}
		if *verbose || rep.Err() != nil {
			fmt.Fprint(stdout, rep.Render())
		} else {
			fmt.Fprintf(stdout, "twcheck: %s: %d cell(s) ok, %d invariant checks\n",
				c.name, len(rep.Cells), rep.TotalChecks)
		}
		if err := rep.Err(); err != nil {
			fmt.Fprintf(stderr, "twcheck: %v\n", err)
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "twcheck: unknown model %q\n", *modelName)
		return 2
	}
	if failed > 0 {
		return 1
	}
	return 0
}

package core_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/audit"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// silent is a model object that starts with nothing to execute: it
// executes, and sends, only once another object has sent it an event.
type silent struct{ model.Object }

func (silent) Init(model.Context, model.State) {}

// TestCoupledRanksLiveness: coupling the ranks to one front never strands a
// run. Two loopback ranks run a PHOLD whose tokens cross between them, under
// windows whose coupling distance is 1, 1 and 15, unbounded, and at two
// workers a rank, where a worker is coupled to the rank's other worker and
// to the other rank at once; and a PHOLD whose rank 1 has nothing to run at
// all, its objects silent and every token kept on its LP. Each must finish
// well inside the bound with the sequential kernel's committed count and
// state hash. A deadlock, or a stale front held through idle waits, shows as
// a run that takes the bound.
func TestCoupledRanksLiveness(t *testing.T) {
	const end = 2000
	const bound = 20 * time.Second // each run takes milliseconds, also under -race
	crossing := func() *model.Model {
		return phold.New(phold.Config{Objects: 64, TokensPerObject: 1, MeanDelay: 10, Locality: 0.5, LPs: 4, Seed: 7, Sparse: true})
	}
	oneSided := func() *model.Model {
		m := phold.New(phold.Config{Objects: 64, TokensPerObject: 1, MeanDelay: 10, Locality: 1, LPs: 4, Seed: 7, Sparse: true})
		for i, lp := range m.Partition {
			if lp >= 2 { // rank 1's
				m.Objects[i] = silent{m.Objects[i]}
			}
		}
		return m
	}
	for _, tc := range []struct {
		name    string
		build   func() *model.Model
		window  vtime.Time
		workers int
	}{
		{"window 64", crossing, 64, 0},
		{"window 100", crossing, 100, 0},
		{"window 1000", crossing, 1000, 0},
		{"unbounded", crossing, 0, 0},
		{"window 100, two workers a rank", crossing, 100, 2},
		{"rank 1 has nothing to run", oneSided, 100, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := core.RunSequential(tc.build(), end, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig(end)
			cfg.Optimism.Window = tc.window
			cfg.Workers = tc.workers
			trs := tcpFleet(t, tc.build().NumLPs(), 2)
			type outcome struct {
				results []*core.Result
				errs    []error
			}
			done := make(chan outcome, 1)
			start := time.Now()
			go func() {
				results, errs := fleet(tc.build, cfg, trs...)
				done <- outcome{results, errs}
			}()
			var out outcome
			select {
			case out = <-done:
			case <-time.After(bound):
				t.Fatalf("the run did not end within %v", bound)
			}
			for r, err := range out.errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			results := out.results
			res := results[0]
			var held [2]int64
			for r, rr := range results {
				for _, ws := range rr.PerWorker {
					held[r] += ws.HeldRounds
				}
			}
			t.Logf("%v, %d committed, %d rollbacks, held rounds %d / %d", time.Since(start), res.Stats.EventsCommitted,
				res.Stats.Rollbacks, held[0], held[1])
			if res.Stats.EventsCommitted != seq.EventsExecuted {
				t.Errorf("committed %d, sequential %d", res.Stats.EventsCommitted, seq.EventsExecuted)
			}
			if got, want := audit.HashStates(res.FinalStates), audit.HashStates(seq.FinalStates); got != want {
				t.Errorf("state hash %#x, sequential %#x", got, want)
			}
		})
	}
}

// TestCoupledRanksCounts: phold-tcp2's shape, scaled down (1,024 sparse
// objects on 8 LPs over two loopback ranks, locality 0.5, a static window of
// 100, end 600), at the default width, one worker a rank on a 2-core host.
// Uncoupled, the rank whose core ran faster drifted up to a window ahead of
// the other, whose messages then rolled it back. At the commit before the
// ranks shared a front this shape read medians of 7.5–20.8 rollbacks per
// 1,000 committed events on a quiet 2-core host, and 510–713 beside a shell
// busy loop; coupled, it reads 0.5–6.1 and 9–23. Beside other packages'
// tests, as `go test ./...` runs it, a coupled median read 17.4. The median
// of three runs must stay under a bound that holds in all of these. Such a
// run does not replay, so the bound is on a median. With a single P the two
// ranks' workers take turns on it by the scheduler's 10 ms slices, a rank
// often runs its slice on a front of the other's that the other has moved
// since and not yet flushed, and the shape storms with or without the
// coupling (480–540 per 1,000 at the commit before it, 110–430 with it):
// there the medians are only logged.
func TestCoupledRanksCounts(t *testing.T) {
	const runs = 3
	build := func() *model.Model {
		return phold.New(phold.Config{
			Objects: 1024, TokensPerObject: 1, MeanDelay: 10,
			Locality: 0.5, LPs: 8, Seed: 7, Sparse: true,
		})
	}
	cfg := core.DefaultConfig(600)
	cfg.Optimism.Window = 100
	var perK []float64
	for i := 0; i < runs; i++ {
		results := runFleet(t, build, cfg, tcpFleet(t, build().NumLPs(), 2)...)
		res := results[0]
		var held int64
		for _, rr := range results {
			for _, ws := range rr.PerWorker {
				held += ws.HeldRounds
			}
		}
		k := 1000 * float64(res.Stats.Rollbacks) / float64(res.Stats.EventsCommitted)
		perK = append(perK, k)
		t.Logf("run %d: %d committed, %d rollbacks, %.2f per 1,000, held rounds %d", i, res.Stats.EventsCommitted,
			res.Stats.Rollbacks, k, held)
	}
	slices.Sort(perK)
	k := perK[len(perK)/2]
	t.Logf("median: %.2f rollbacks per 1,000 committed", k)
	if runtime.GOMAXPROCS(0) < 2 {
		return
	}
	const bound = 40.0
	if k > bound {
		t.Errorf("median %.2f rollbacks per 1,000 committed events, bound %.1f", k, bound)
	}
}

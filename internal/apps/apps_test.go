// Package apps_test validates the paper's application models against the
// sequential reference kernel and checks the qualitative properties the
// paper reports (which objects favor which cancellation strategy).
package apps_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gowarp/internal/apps/raid"
	"gowarp/internal/apps/smmp"
	"gowarp/internal/cancel"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

func cfg(end vtime.Time) core.Config {
	c := core.DefaultConfig(end)
	c.GVTPeriod = 200 * time.Microsecond
	c.Optimism.Window = end / 4
	return c
}

func check(t *testing.T, m *model.Model, c core.Config) *core.Result {
	t.Helper()
	seq, err := core.RunSequential(m, c.EndTime, 0)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := core.Run(m, c)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if par.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("committed: parallel %d, sequential %d", par.Stats.EventsCommitted, seq.EventsExecuted)
	}
	for i := range seq.FinalStates {
		if !reflect.DeepEqual(par.FinalStates[i], seq.FinalStates[i]) {
			t.Errorf("object %d (%s): final states differ\nparallel:   %+v\nsequential: %+v",
				i, m.Objects[i].Name(), par.FinalStates[i], seq.FinalStates[i])
			break
		}
	}
	return par
}

func TestSMMPMatchesSequential(t *testing.T) {
	m := smmp.New(smmp.Config{Requests: 200})
	check(t, m, cfg(1_000_000))
}

func TestSMMPLazyFavored(t *testing.T) {
	// The paper: "In this application, all the objects strictly favor
	// lazy-cancellation." Under dynamic cancellation, objects that roll
	// back should end up lazy with high hit ratios.
	m := smmp.New(smmp.Config{Requests: 800})
	c := cfg(10_000_000)
	c.Cancellation = cancel.Config{Mode: cancel.Dynamic, FilterDepth: 16, Period: 4}
	res := check(t, m, c)
	if res.Stats.Rollbacks == 0 {
		t.Skip("no rollbacks this run; nothing to observe")
	}
	var lazies, deciders int
	for _, po := range res.PerObject {
		if po.HitRatio > 0 || po.FinalStrategy == "lazy" {
			deciders++
			if po.FinalStrategy == "lazy" {
				lazies++
			}
		}
	}
	if deciders > 0 && lazies*2 < deciders {
		t.Errorf("expected most deciding SMMP objects lazy; got %d/%d", lazies, deciders)
	}
	t.Logf("rollbacks=%d HR=%.3f lazies=%d/%d", res.Stats.Rollbacks, res.Stats.HitRatio(), lazies, deciders)
}

func TestRAIDMatchesSequential(t *testing.T) {
	m := raid.New(raid.Config{RequestsPerSource: 100})
	check(t, m, cfg(10_000_000))
}

func TestRAIDStrategySplit(t *testing.T) {
	// The paper: "all disk objects favor lazy-cancellation while all the
	// fork objects favor aggressive-cancellation." What an object has settled
	// on when the run ends is a sample of a statistical claim, and a small
	// one: four forks, each rolled back a handful of times, each reading its
	// hit ratio off a 16-deep window that one burst of regenerated
	// sub-requests tips. So the estimator pools three seeds and counts an
	// object only once its selector has seen a full window of comparisons;
	// the claim is then about a dozen forks and two dozen disks, not four
	// and eight (one run's forks read 1 of 4 aggressive about one time in
	// fifty under load).
	const filterDepth = 16
	var diskLazy, diskSeen, forkAggr, forkSeen int
	for seed := uint64(1); seed <= 3; seed++ {
		m := raid.New(raid.Config{RequestsPerSource: 400, Seed: seed})
		c := cfg(50_000_000)
		c.Cancellation = cancel.Config{Mode: cancel.Dynamic, FilterDepth: filterDepth, Period: 4}
		res := check(t, m, c)
		for _, po := range res.PerObject {
			if po.Comparisons < filterDepth {
				continue
			}
			switch {
			case strings.Contains(po.Name, ".disk."):
				diskSeen++
				if po.FinalStrategy == "lazy" {
					diskLazy++
				}
			case strings.Contains(po.Name, ".fork."):
				forkSeen++
				if po.FinalStrategy == "aggressive" {
					forkAggr++
				}
			}
		}
		t.Logf("seed %d: rollbacks=%d HR=%.3f; so far disks lazy %d/%d, forks aggressive %d/%d",
			seed, res.Stats.Rollbacks, res.Stats.HitRatio(), diskLazy, diskSeen, forkAggr, forkSeen)
	}
	if diskSeen+forkSeen == 0 {
		t.Skip("no object compared a window's worth of outputs; nothing to observe")
	}
	if diskLazy*2 < diskSeen {
		t.Errorf("expected most disks lazy: %d/%d", diskLazy, diskSeen)
	}
	if forkAggr*2 < forkSeen {
		t.Errorf("expected most forks aggressive: %d/%d", forkAggr, forkSeen)
	}
}

func TestRAIDOrderSensitiveDisks(t *testing.T) {
	// The ablation knob: with head-tracking disks, rollback re-execution
	// changes service times, so disk hit ratios should collapse.
	m := raid.New(raid.Config{RequestsPerSource: 200, OrderSensitiveDisks: true})
	c := cfg(20_000_000)
	c.Cancellation = cancel.Config{Mode: cancel.Dynamic, FilterDepth: 16, Period: 4}
	check(t, m, c)
}

func TestModelShapes(t *testing.T) {
	m := smmp.New(smmp.Config{})
	if err := m.Validate(); err != nil {
		t.Fatalf("smmp: %v", err)
	}
	if got, want := len(m.Objects), 16*3+4; got != want {
		t.Errorf("smmp objects = %d, want %d", got, want)
	}
	if got := m.NumLPs(); got != 4 {
		t.Errorf("smmp LPs = %d, want 4", got)
	}
	r := raid.New(raid.Config{})
	if err := r.Validate(); err != nil {
		t.Fatalf("raid: %v", err)
	}
	if got, want := len(r.Objects), 20+4+8; got != want {
		t.Errorf("raid objects = %d, want %d", got, want)
	}
	if got := r.NumLPs(); got != 4 {
		t.Errorf("raid LPs = %d, want 4", got)
	}
}

// Integration tests for the observation layer against the live kernel: an
// external test package so the race detector exercises the real interleavings
// of the workers, the trace rings and the kernel's roughness samples through
// the public surfaces only.
package observe_test

import (
	"strings"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/cancel"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/observe"
	"gowarp/internal/statesave"
	"gowarp/internal/telemetry"
)

// stormModel is a deliberately contentious fixture: low locality and
// unbounded optimism under aggressive cancellation make straggler-rooted
// anti-message chains — the known cascade shape the linker must recover.
func stormModel(seed uint64) *model.Model {
	return phold.New(phold.Config{
		Objects: 16, TokensPerObject: 4, MeanDelay: 10,
		Locality: 0.1, LPs: 4, Seed: seed,
	})
}

func stormConfig(tr *telemetry.Tracer, reg *telemetry.Registry) core.Config {
	cfg := core.DefaultConfig(3000)
	cfg.Checkpoint = statesave.Config{Mode: statesave.Periodic, Interval: 4}
	cfg.Cancellation = cancel.Config{Mode: cancel.StaticAggressive}
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.Tracer = tr
	cfg.Metrics = reg
	return cfg
}

// TestObservedRunMatchesReferenceAndLinks runs the storm fixture with the
// full observation stack attached (run with -race in CI) and checks that
// (a) observation did not perturb the simulation — committed events match
// the sequential reference — and (b) the cascade linker recovers a
// structurally consistent forest: every linked child is anti-caused, its
// parent lives on the child's source object, and the parent's rollback
// point precedes the cancelled output's send time.
func TestObservedRunMatchesReferenceAndLinks(t *testing.T) {
	linkedOnce := false
	for seed := uint64(1); seed <= 5; seed++ {
		m := stormModel(seed)
		seq, err := core.RunSequential(m, 3000, 0)
		if err != nil {
			t.Fatal(err)
		}

		tr := telemetry.NewTracer(1 << 14)
		reg := telemetry.NewRegistry()
		res, err := core.Run(stormModel(seed), stormConfig(tr, reg))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.EventsCommitted != seq.EventsExecuted {
			t.Fatalf("seed %d: committed %d, reference executed %d — observation perturbed the run",
				seed, res.Stats.EventsCommitted, seq.EventsExecuted)
		}

		rbs := observe.ExtractRollbacks(tr.Events())
		observe.Link(rbs)
		var linked, anti int
		for i := range rbs {
			if rbs[i].Anti {
				anti++
			}
			p := rbs[i].Parent
			if p == -1 {
				continue
			}
			linked++
			if !rbs[i].Anti {
				t.Fatalf("seed %d: straggler-caused rollback %d got a parent", seed, i)
			}
			if rbs[p].Object != rbs[i].Src {
				t.Fatalf("seed %d: rollback %d parent on obj %d, but anti came from obj %d",
					seed, i, rbs[p].Object, rbs[i].Src)
			}
			if rbs[p].RecvVT > rbs[i].SendVT {
				t.Fatalf("seed %d: parent rollback point %d is past cancelled send_vt %d",
					seed, rbs[p].RecvVT, rbs[i].SendVT)
			}
		}

		// Cascade aggregation must conserve episodes and cost.
		cs := observe.BuildCascades(rbs)
		var members int
		var rolled int64
		for _, c := range cs {
			members += c.Members
			rolled += c.Rolled
		}
		if members != len(rbs) {
			t.Fatalf("seed %d: cascades cover %d episodes of %d", seed, members, len(rbs))
		}
		var wantRolled int64
		for i := range rbs {
			wantRolled += rbs[i].Rolled
		}
		if rolled != wantRolled {
			t.Fatalf("seed %d: cascades sum %d rolled events, trace says %d", seed, rolled, wantRolled)
		}

		if res.Roughness == nil || len(observe.ExtractRoughness(tr.Events())) == 0 {
			t.Fatalf("seed %d: no roughness samples from a traced run", seed)
		}

		if linked > 0 {
			linkedOnce = true

			// The acceptance surface: the new series must be visible on the
			// Prometheus endpoint of an observed run.
			var prom strings.Builder
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				"gowarp_lvt_width", "gowarp_lvt_stddev",
				"gowarp_rollback_depth_bucket", "gowarp_rollback_depth_sum",
				"gowarp_wasted_work_ratio",
			} {
				if !strings.Contains(prom.String(), want) {
					t.Fatalf("seed %d: Prometheus output missing %s", seed, want)
				}
			}
			break
		}
	}
	if !linkedOnce {
		t.Fatal("no seed produced a linked cascade — fixture no longer storms; retune it")
	}
}

// TestObservedRunSummaryFields checks that a report built from a live trace
// plus the run's own record renders an attributed cascade tree.
func TestObservedRunSummaryFields(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		tr := telemetry.NewTracer(1 << 14)
		res, err := core.Run(stormModel(seed), stormConfig(tr, nil))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rollbacks == 0 {
			continue
		}
		rep := observe.NewReport(tr.Events(), &res.RunRecord)
		var text strings.Builder
		if err := rep.WriteText(&text, 3); err != nil {
			t.Fatal(err)
		}
		out := text.String()
		for _, want := range []string{"#1 root:", "cause obj", "events undone", "per-LP efficiency"} {
			if !strings.Contains(out, want) {
				t.Fatalf("seed %d: report missing %q:\n%s", seed, want, out)
			}
		}
		return
	}
	t.Fatal("no seed produced rollbacks — fixture no longer storms; retune it")
}

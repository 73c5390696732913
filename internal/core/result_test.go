package core_test

import (
	"strings"
	"testing"

	"gowarp/internal/core"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/telemetry"
)

// TestResultCarriesRoughness: a plain Run — no tracer, no metrics — returns
// the roughness the kernel sampled at its GVT applications, and a rollback-
// depth histogram that counts every rollback once.
func TestResultCarriesRoughness(t *testing.T) {
	res, err := core.Run(testModel(5), testConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Roughness; s == nil || s.Samples == 0 || s.MaxWidth < 0 {
		t.Errorf("roughness summary %+v, want samples", s)
	}
	if res.Stats.Rollbacks == 0 {
		t.Fatal("no rollbacks: the fixture no longer contends")
	}
	var sum int64
	for _, n := range res.RollbackDepthHist {
		sum += n
	}
	if sum != res.Stats.Rollbacks {
		t.Errorf("depth histogram %v sums to %d, run rolled back %d times", res.RollbackDepthHist, sum, res.Stats.Rollbacks)
	}
}

// TestResultCarriesTraceDropped: a run whose trace rings are too small to hold
// it reports what they overwrote.
func TestResultCarriesTraceDropped(t *testing.T) {
	cfg := testConfig(800)
	cfg.Tracer = telemetry.NewTracer(16)
	res, err := core.Run(testModel(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceDropped <= 0 || res.TraceDropped != cfg.Tracer.Dropped() {
		t.Errorf("TraceDropped %d, tracer dropped %d: want the tracer's positive count", res.TraceDropped, cfg.Tracer.Dropped())
	}
}

// bombState counts the events its object executed.
type bombState struct{ n int }

func (s *bombState) Clone() model.State { return &bombState{s.n} }

// bomb passes a token to its peer and panics at its fifth event, or in Init.
type bomb struct {
	name          string
	peer          event.ObjectID
	armed, atInit bool
}

func (b *bomb) Name() string              { return b.name }
func (b *bomb) InitialState() model.State { return &bombState{} }

func (b *bomb) Init(ctx model.Context, st model.State) {
	if b.armed && b.atInit {
		panic("boom at init")
	}
	ctx.Send(b.peer, 1, 7, nil)
}

func (b *bomb) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*bombState)
	if s.n++; b.armed && s.n == 5 {
		panic("boom")
	}
	ctx.Send(b.peer, 1, 7, nil)
}

// TestWorkerPanicNamesCause: a panic in a model fails the run with an error
// that names where it happened — rank, LP, object and its name, the event
// being executed or Init, the LP's GVT — and the stack.
func TestWorkerPanicNamesCause(t *testing.T) {
	for _, c := range []struct {
		name    string
		workers int
		atInit  bool
		want    []string
	}{
		{"event-workers1", 1, false, []string{"rank 0 failed: LP 0, object 0 (bomb), event kind 7 at t=", "GVT", "panic: boom\n"}},
		{"event-workers2", 2, false, []string{"rank 0 failed: LP 0, object 0 (bomb), event kind 7 at t=", "GVT", "panic: boom\n"}},
		{"init", 1, true, []string{"rank 0 failed: LP 0, object 0 (bomb), Init, GVT", "panic: boom at init\n"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := &model.Model{
				Name:      "bomb",
				Objects:   []model.Object{&bomb{name: "bomb", peer: 1, armed: true, atInit: c.atInit}, &bomb{name: "peer", peer: 0}},
				Partition: []int{0, 1},
			}
			cfg := testConfig(1000)
			cfg.Workers = c.workers
			_, err := core.Run(m, cfg)
			if err == nil {
				t.Fatal("the run succeeded")
			}
			msg := err.Error()
			for _, w := range append(c.want, "runtime/debug.Stack") {
				if !strings.Contains(msg, w) {
					t.Errorf("error lacks %q:\n%s", w, msg)
				}
			}
		})
	}
}

package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"gowarp/internal/apps/phold"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// optTestConfig is the resolved controller tuning the tests below share:
// fire every opportunity, act on small samples, tight dead zone.
func optTestConfig() OptimismConfig {
	return OptimismConfig{
		Mode:      OptimismAdaptive,
		Window:    500,
		Min:       50,
		Max:       4000,
		Period:    1,
		HighWater: 0.3,
		LowWater:  0.1,
		Factor:    2,
		MinSample: 10,
	}.withDefaults()
}

func TestOptimismConfigDefaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   OptimismConfig
		want OptimismConfig
	}{
		{
			name: "zero value resolves to documented defaults",
			in:   OptimismConfig{},
			want: OptimismConfig{
				Window: 0, Min: 16, Max: 16384, Period: 4,
				HighWater: 0.5, LowWater: 0.2, Factor: 2, MinSample: 64, RoughFactor: 4,
			},
		},
		{
			name: "clamps default around the starting window",
			in:   OptimismConfig{Window: 2000},
			want: OptimismConfig{
				Window: 2000, Min: 250, Max: 16384, Period: 4,
				HighWater: 0.5, LowWater: 0.2, Factor: 2, MinSample: 64, RoughFactor: 4,
			},
		},
		{
			name: "clamps widen to admit the starting window",
			in:   OptimismConfig{Window: 100_000, Min: 8, Max: 400},
			want: OptimismConfig{
				Window: 100_000, Min: 8, Max: 100_000, Period: 4,
				HighWater: 0.5, LowWater: 0.2, Factor: 2, MinSample: 64, RoughFactor: 4,
			},
		},
		{
			name: "low water never exceeds high water",
			in:   OptimismConfig{HighWater: 0.2, LowWater: 0.4},
			want: OptimismConfig{
				Window: 0, Min: 16, Max: 16384, Period: 4,
				HighWater: 0.2, LowWater: 0.2, Factor: 2, MinSample: 64, RoughFactor: 4,
			},
		},
	} {
		got := tc.in.withDefaults()
		tc.want.Mode = tc.in.Mode
		if got != tc.want {
			t.Errorf("%s: withDefaults() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestAdaptWindowTable pins the transfer function's shape, including both
// unbounded-sentinel transitions: relaxing at Max opens optimism fully, and
// waste while unbounded re-enters the bounded range at Max.
func TestAdaptWindowTable(t *testing.T) {
	cfg := optTestConfig()
	for _, tc := range []struct {
		name string
		w    vtime.Time
		cost float64
		want vtime.Time
	}{
		{"tighten halves the window", 800, 0.9, 400},
		{"relax doubles the window", 800, 0.05, 1600},
		{"dead zone holds exactly", 800, 0.2, 800},
		{"tighten clamps at Min", 60, 0.9, 50},
		{"hold at Min under waste", 50, 0.9, 50},
		{"relax at Max goes unbounded", 4000, 0.05, 0},
		{"relax above Max goes unbounded", 5000, 0.05, 0},
		{"dead zone holds at Max", 4000, 0.2, 4000},
		{"unbounded holds under low cost", 0, 0.05, 0},
		{"unbounded holds in the dead zone", 0, 0.2, 0},
		{"unbounded re-enters at Max under waste", 0, 0.9, 4000},
	} {
		if got := adaptWindow(cfg, tc.w, tc.cost); got != tc.want {
			t.Errorf("%s: adaptWindow(w=%d, cost=%.2f) = %d, want %d",
				tc.name, tc.w, tc.cost, got, tc.want)
		}
	}
}

// TestAdaptWindowProperties checks the transfer function over random inputs:
// the result is always the unbounded sentinel or inside [Min, Max], a cost
// inside the dead zone never moves a bounded window (hysteresis — no
// thrashing between adjacent settings on a flat signal), any move from a
// bounded window is at most one multiplicative notch, and a higher cost
// never yields a larger window.
func TestAdaptWindowProperties(t *testing.T) {
	cfg := optTestConfig()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		w := vtime.Time(rng.Int63n(6000)) // past Max on purpose
		if rng.Intn(8) == 0 {
			w = 0
		}
		cost := rng.Float64() * 1.5
		got := adaptWindow(cfg, w, cost)

		if got != 0 && (got < cfg.Min || got > cfg.Max) {
			t.Fatalf("adaptWindow(%d, %.3f) = %d escapes [%d, %d]",
				w, cost, got, cfg.Min, cfg.Max)
		}
		if w > 0 && w >= cfg.Min && w <= cfg.Max &&
			cost >= cfg.LowWater && cost <= cfg.HighWater && got != w {
			t.Fatalf("adaptWindow(%d, %.3f) = %d moved inside the dead zone", w, cost, got)
		}
		if w > 0 && got > 0 {
			// The step measures from the clamped start: out-of-range windows
			// re-enter [Min, Max] before the multiplicative notch applies.
			start := w
			if start < cfg.Min {
				start = cfg.Min
			}
			if start > cfg.Max {
				start = cfg.Max
			}
			lo, hi := float64(start)/cfg.Factor, float64(start)*cfg.Factor
			if float64(got) < lo-1 || float64(got) > hi+1 {
				t.Fatalf("adaptWindow(%d, %.3f) = %d jumped more than one x%.0f notch",
					w, cost, got, cfg.Factor)
			}
		}
		// Monotone in cost: more waste never widens the window. The sentinel
		// is ordered as the widest window.
		cost2 := cost + rng.Float64()
		got2 := adaptWindow(cfg, w, cost2)
		wide := func(v vtime.Time) vtime.Time {
			if v <= 0 {
				return vtime.PosInf
			}
			return v
		}
		if wide(got2) > wide(got) {
			t.Fatalf("adaptWindow(%d, .) not monotone: cost %.3f -> %d but cost %.3f -> %d",
				w, cost, got, cost2, got2)
		}
	}
}

// TestOptControllerHandTrace walks one controller through a scripted
// observation sequence and pins the full window trajectory: tighten under
// waste, leave a thin window undecided so the next decision covers it too,
// relax when smooth, hold in the dead zone, open to unbounded past Max, and
// re-enter at Max on the roughness trigger.
func TestOptControllerHandTrace(t *testing.T) {
	cfg := optTestConfig() // roughLimit = 4 * 4000 = 16000
	c := newOptController(cfg, nil)
	w := cfg.Window

	var committed, rolled int64 // the window: what happened since the last decision
	for i, st := range []struct {
		name    string
		dc, dr  int64
		width   int64
		want    vtime.Time
		decided bool
	}{
		{"waste tightens", 100, 50, 0, 250, true},
		{"thin window extends", 5, 0, 0, 250, false},
		{"the extended window relaxes", 95, 2, 0, 500, true},
		{"dead zone holds", 100, 20, 0, 500, true},
		{"smooth relaxes", 100, 0, 0, 1000, true},
		{"smooth relaxes again", 100, 0, 0, 2000, true},
		{"smooth reaches Max", 100, 0, 0, 4000, true},
		{"smooth at Max opens fully", 100, 0, 0, 0, true},
		{"unbounded holds while flat", 100, 0, 100, 0, true},
		{"roughness re-enters at Max", 100, 0, 20000, 4000, true},
		{"waste keeps tightening", 100, 90, 0, 2000, true},
	} {
		committed += st.dc
		rolled += st.dr
		next, _, decided := c.step(committed, rolled, st.width, st.width > 0, w)
		if next != st.want || decided != st.decided {
			t.Fatalf("step %d (%s): window = %d, decided %v; want %d, %v", i, st.name, next, decided, st.want, st.decided)
		}
		if decided {
			committed, rolled = 0, 0
		}
		w = next
	}
}

// TestOptControllerPeriod pins the P component: with Period 3 the controller
// only reads its window on every third GVT application, and each reading
// covers the three applications since the last.
func TestOptControllerPeriod(t *testing.T) {
	cfg := optTestConfig()
	cfg.Period = 3
	lp := &lpRun{k: &shared{}, loads: [2]loadSample{{at: vtime.NegInf}, {at: vtime.NegInf}}}
	lp.k.window.Store(int64(cfg.Window))
	lp.opt = newOptController(cfg, []*lpRun{lp})

	for i := 0; i < 12; i++ {
		lp.runOptimism()
		lp.st.EventsCommitted += 100 // plenty of waste-free sample: relaxes when fired
		lp.recordProgress(vtime.Time(i))
	}
	// 12 opportunities / period 3 = 4 firings, each relaxing one notch: 1000,
	// 2000, 4000 (Max), then unbounded.
	if n := lp.st.OptimismAdjustments; n != 4 {
		t.Errorf("Period=3 controller moved %d times over 12 opportunities, want 4", n)
	}
	if w := lp.k.window.Load(); w != 0 {
		t.Errorf("window after 4 relaxes = %d, want 0 (unbounded)", w)
	}
}

// TestOptControllerSwitchDeterminism feeds two independent controllers the
// same pseudo-random observation sequence and requires bit-identical window
// trajectories — the controller level of the run-level seed-determinism
// guarantee: the switch sequence is a pure function of the observation
// sequence.
func TestOptControllerSwitchDeterminism(t *testing.T) {
	cfg := optTestConfig()
	a, b := newOptController(cfg, nil), newOptController(cfg, nil)
	wa, wb := cfg.Window, cfg.Window

	rng := rand.New(rand.NewSource(11))
	var committed, rolled int64
	for i := 0; i < 500; i++ {
		committed += rng.Int63n(40)
		rolled += rng.Int63n(20)
		width := rng.Int63n(30000)
		na, costA, decidedA := a.step(committed, rolled, width, true, wa)
		nb, costB, decidedB := b.step(committed, rolled, width, true, wb)
		if na != nb || costA != costB || decidedA != decidedB {
			t.Fatalf("step %d diverged: (%d, %.3f, %v) vs (%d, %.3f, %v)",
				i, na, costA, decidedA, nb, costB, decidedB)
		}
		if decidedA {
			committed, rolled = 0, 0
		}
		wa, wb = na, nb
	}
	if wa == cfg.Window {
		t.Fatal("observation sequence never moved the window; test is vacuous")
	}
}

// TestTightWindowTerminates is the deadlock regression for the wake path: a
// sparse model (every hop at least 20 virtual-time units) under a window of
// 1 leaves every LP blocked at its horizon between events, so progress
// depends entirely on GVT advancing and waking the blocked LPs. The adaptive
// controller is pinned by an unreachable sample floor, holding the window
// tight for the whole run — the run must still drain.
func TestTightWindowTerminates(t *testing.T) {
	m := phold.New(phold.Config{
		Objects: 12, TokensPerObject: 2, MeanDelay: 40, MinDelay: 20,
		Locality: 0.2, LPs: 4, Seed: 9,
	})
	cfg := DefaultConfig(4000)
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.Optimism = OptimismConfig{
		Mode:      OptimismAdaptive,
		Window:    1,
		Min:       1,
		Max:       1,
		MinSample: 1 << 40, // never enough sample: the window stays at 1
	}

	done := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = Run(m, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run with a tight adaptive window deadlocked")
	}
	if res.Stats.EventsCommitted == 0 {
		t.Fatal("no events committed")
	}
	if res.FinalOptimismWindow != 1 {
		t.Errorf("pinned window drifted to %d", res.FinalOptimismWindow)
	}

	// Same run with the reference: a tight window throttles, never changes
	// semantics.
	seq, err := RunSequential(m, 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("tight window changed semantics: committed %d, reference %d",
			res.Stats.EventsCommitted, seq.EventsExecuted)
	}
}

// TestAdaptiveOptimismRun drives the facet end to end through Run on a
// contentious model: the controller must actually move the window, account
// its moves in the stats, and report the window in force at exit.
func TestAdaptiveOptimismRun(t *testing.T) {
	m := phold.New(phold.Config{
		Objects: 16, TokensPerObject: 3, MeanDelay: 10,
		Locality: 0.2, LPs: 4, Seed: 21,
	})
	cfg := DefaultConfig(30_000)
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.Optimism = OptimismConfig{
		Mode:      OptimismAdaptive,
		Window:    200,
		Min:       25,
		Max:       1600,
		Period:    1,
		HighWater: 0.3,
		LowWater:  0.1,
		MinSample: 16,
	}
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OptimismAdjustments == 0 {
		t.Error("adaptive controller never adjusted the window")
	}
	if w := res.FinalOptimismWindow; w != 0 && (w < 25 || w > 1600) {
		t.Errorf("final window %d escapes the configured clamps", w)
	}
	seq, err := RunSequential(m, 30_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("adaptation changed semantics: committed %d, reference %d",
			res.Stats.EventsCommitted, seq.EventsExecuted)
	}
}

// TestWindowSingleWriter asserts what shared.window's comment promises. An
// adaptive run on 4 LPs and 2 workers matches the sequential kernel; and every
// move of the slot is a record in LP 0's trace — made where LP 0's GVT
// application stores it — each starting at the window the one before it ended
// at, from the configured window to the one the Result and the gauge report.
// A store from anywhere else would break that chain.
func TestWindowSingleWriter(t *testing.T) {
	m := phold.New(phold.Config{
		Objects: 16, TokensPerObject: 3, MeanDelay: 10,
		Locality: 0.2, LPs: 4, Seed: 33,
	})
	cfg := DefaultConfig(8000)
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.Workers = 2
	cfg.Optimism = optTestConfig()
	cfg.Tracer = telemetry.NewTracer(1 << 17)
	cfg.Metrics = telemetry.NewRegistry()

	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunSequential(m, cfg.EndTime, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsCommitted != seq.EventsExecuted || !reflect.DeepEqual(res.FinalStates, seq.FinalStates) {
		t.Errorf("committed %d events, the sequential kernel %d; final states equal: %v",
			res.Stats.EventsCommitted, seq.EventsExecuted, reflect.DeepEqual(res.FinalStates, seq.FinalStates))
	}

	if n := cfg.Tracer.Dropped(); n > 0 {
		t.Fatalf("trace rings overwrote %d events: the chain below has holes", n)
	}
	events := cfg.Tracer.Events()
	w, moves := int64(cfg.Optimism.Window), 0
	for _, e := range events {
		if e.Kind != telemetry.KindOptSwitch {
			continue
		}
		if e.LP != 0 {
			t.Fatalf("move %d -> %d recorded by LP %d", e.A, e.B, e.LP)
		}
		if e.A != w {
			t.Fatalf("move %d goes %d -> %d, but the one before left the window at %d", moves, e.A, e.B, w)
		}
		w = e.B
		moves++
	}
	if moves == 0 {
		t.Fatal("the window never moved; the test is vacuous")
	}
	if w != int64(res.FinalOptimismWindow) {
		t.Errorf("the last recorded move left the window at %d, FinalOptimismWindow = %d", w, res.FinalOptimismWindow)
	}
	if g := cfg.Metrics.Gauge("gowarp_optimism_window", "", false).Get(0); g != float64(w) {
		t.Errorf("gowarp_optimism_window = %v, want %d", g, w)
	}
	if int64(moves) != res.Stats.OptimismAdjustments {
		t.Errorf("the trace records %d moves, the controller counted %d", moves, res.Stats.OptimismAdjustments)
	}
	t.Logf("%d moves; %d trace events", moves, len(events))
}

// TestSharedOwnsItsCacheLine pins the layout shared's pad comment explains: a
// field added or removed must leave the struct one 64-byte size class wide.
func TestSharedOwnsItsCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(shared{}); s != 64 {
		t.Errorf("shared is %d bytes, want 64: resize its pad", s)
	}
}

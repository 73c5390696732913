package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"gowarp/internal/apps/phold"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/partition"
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
				HighWater: 0.5, LowWater: 0.2, MinSample: 64,
			},
		},
		{
			name: "clamps default around the starting window",
			in:   OptimismConfig{Window: 2000},
			want: OptimismConfig{
				Window: 2000, Min: 250, Max: 16384, Period: 4,
				HighWater: 0.5, LowWater: 0.2, MinSample: 64,
			},
		},
		{
			name: "clamps widen to admit the starting window",
			in:   OptimismConfig{Window: 100_000, Min: 8, Max: 400},
			want: OptimismConfig{
				Window: 100_000, Min: 8, Max: 100_000, Period: 4,
				HighWater: 0.5, LowWater: 0.2, MinSample: 64,
			},
		},
		{
			name: "low water never exceeds high water",
			in:   OptimismConfig{HighWater: 0.2, LowWater: 0.4},
			want: OptimismConfig{
				Window: 0, Min: 16, Max: 16384, Period: 4,
				HighWater: 0.2, LowWater: 0.2, MinSample: 64,
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
			lo, hi := float64(start)/optStep, float64(start)*optStep
			if float64(got) < lo-1 || float64(got) > hi+1 {
				t.Fatalf("adaptWindow(%d, %.3f) = %d jumped more than one x%.0f notch",
					w, cost, got, float64(optStep))
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
	cfg := optTestConfig()
	roughLimit := int64(roughFactor * cfg.Max) // 16,000
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
		{"unbounded holds at the rough limit", 100, 0, roughLimit, 0, true},
		{"roughness re-enters at Max", 100, 0, roughLimit + 1, 4000, true},
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
	lp.window = cfg.Window
	lp.opt = newOptController(cfg, []*lpRun{lp})

	for i := 0; i < 12; i++ {
		lp.window = lp.runOptimism()
		lp.st.EventsCommitted += 100 // plenty of waste-free sample: relaxes when fired
		lp.recordProgress(vtime.Time(i))
	}
	// 12 opportunities / period 3 = 4 firings, each relaxing one notch: 1000,
	// 2000, 4000 (Max), then unbounded.
	if n := lp.st.OptimismAdjustments; n != 4 {
		t.Errorf("Period=3 controller moved %d times over 12 opportunities, want 4", n)
	}
	if w := lp.window; w != 0 {
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

// TestWindowSingleWriter asserts what lpRun.window's comment promises. An
// adaptive run on 4 LPs and 2 workers matches the sequential kernel; every
// move of the window is a record in LP 0's trace — made where LP 0's
// controller decides it, before the GVT broadcast — each starting at the
// window the one before it ended at, from the configured window to the one
// the Result and the gauge report; and every LP ends with that window. A
// decision from anywhere else would break the chain, and a window that did
// not ride the broadcast would leave some LP behind.
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

	// Run reports the first hosted LP's window; drive a kernel directly to see
	// every LP's.
	cfg.Tracer, cfg.Metrics = nil, nil
	d := newKernel(m, &cfg, comm.Peers{Local: []int{0, 1, 2, 3}}, inProc(m, &cfg), nil)
	runWorkers(d)
	if d.lps[0].st.OptimismAdjustments == 0 {
		t.Fatal("the window never moved in the direct run")
	}
	for _, lp := range d.lps {
		if lp.window != d.lps[0].window {
			t.Errorf("LP %d ends with window %s, LP 0 with %s", lp.id, lp.window, d.lps[0].window)
		}
	}
}

// TestSharedOwnsItsCacheLine pins the layout shared's pad comment explains: a
// field added or removed must leave the struct one 64-byte size class wide.
func TestSharedOwnsItsCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(shared{}); s != 64 {
		t.Errorf("shared is %d bytes, want 64: resize its pad", s)
	}
}

// TestGVTBroadcastCarriesWindowAndMoves applies one GVT packet, as LP 0
// broadcasts it, to every LP of a synchronously driven kernel: it relaxes the
// window from 1 to 100 and moves object 1 from LP 0 to LP 1. Every LP's
// horizon follows the packet; LP 1, blocked at the old horizon, executes on
// its next step, with nothing but the packet to move its horizon; and LP 0
// ships the object, which LP 1 installs.
func TestGVTBroadcastCarriesWindowAndMoves(t *testing.T) {
	m := ringModel(4, 4, 2)
	m.Partition = []int{0, 0, 1, 1}
	cfg := DefaultConfig(vtime.Time(1) << 40)
	cfg.Optimism.Window = 1
	k := &twin{lps: newTestKernel(m, &cfg)}
	k.settle()
	for _, lp := range k.lps {
		for lp.execStep() {
			k.settle()
		}
	}
	blocked := k.lps[1]
	if _, next := blocked.next(); next == vtime.PosInf || !next.After(blocked.horizon) {
		t.Fatalf("LP 1's next event at %s is not beyond its horizon %s", next, blocked.horizon)
	}

	g := vtime.PosInf
	for _, lp := range k.lps {
		g = vtime.Min(g, lp.localMin())
	}
	p := comm.Packet{Kind: comm.PktGVT, From: 0, GVT: g, Window: 100,
		Moves: []partition.Move{{Object: 1, From: 0, To: 1}}}
	for _, lp := range k.lps {
		lp.handlePacket(p)
		if lp.window != 100 || lp.horizon != g.Add(100) {
			t.Errorf("LP %d: window %s, horizon %s after GVT %s; want 100 and %s", lp.id, lp.window, lp.horizon, g, g.Add(100))
		}
	}
	if !blocked.execStep() {
		t.Error("LP 1 is still blocked after the window relaxed")
	}
	blocked.drainInbox()
	if k.lps[0].hosted(1) != nil || blocked.hosted(1) == nil || blocked.k.rt.Owner(1) != 1 {
		t.Errorf("object 1: on LP 0 %v, on LP 1 %v, routed to LP %d; want it installed on LP 1",
			k.lps[0].hosted(1) != nil, blocked.hosted(1) != nil, blocked.k.rt.Owner(1))
	}
	if n := blocked.st.Migrations; n != 1 {
		t.Errorf("LP 1 installed %d objects, want 1", n)
	}
}

// TestMigrateMovesGroupsByDestination: an LP carries out the moves that name
// it as source, one capsule per destination in the order the moves first
// name it, and skips a move for an object it does not host and one that
// would leave it empty. LP 0 hosts objects 0–3; the moves send 1 and 3 to
// LP 1 (one capsule), then 2 and 0 to LP 2, where 0 would be LP 0's last.
// Object 4's move names LP 1 as source and LP 0 ignores it, and object 5's
// names LP 0, which never hosted it.
func TestMigrateMovesGroupsByDestination(t *testing.T) {
	m := ringModel(6, 6, 3)
	m.Partition = []int{0, 0, 0, 0, 1, 2}
	cfg := DefaultConfig(vtime.Time(1) << 40)
	k := &twin{lps: newTestKernel(m, &cfg)}
	k.settle()
	lp0 := k.lps[0]
	lp0.migrateMoves([]partition.Move{
		{Object: 1, From: 0, To: 1}, {Object: 4, From: 1, To: 2}, {Object: 2, From: 0, To: 2},
		{Object: 3, From: 0, To: 1}, {Object: 5, From: 0, To: 1}, {Object: 0, From: 0, To: 2},
	})
	k.settle()
	for id, want := range []int{0, 1, 2, 1, 1, 2} {
		if got := lp0.k.rt.Owner(id); got != want || k.lps[want].hosted(event.ObjectID(id)) == nil {
			t.Errorf("object %d: routed to LP %d, want hosted on LP %d", id, got, want)
		}
	}
	if lp0.st.BatchedMigrations != 2 || k.lps[1].st.Migrations != 2 || k.lps[2].st.Migrations != 1 {
		t.Errorf("batched %d objects, LP 1 installed %d, LP 2 %d; want one capsule of 2 to LP 1 and one of 1 to LP 2",
			lp0.st.BatchedMigrations, k.lps[1].st.Migrations, k.lps[2].st.Migrations)
	}
}

package core

import (
	"math"
	"testing"
	"time"

	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// TestRoughnessSampleAtCut pins what the roughness observer reads: the
// progress records of every hosted LP at one GVT cut, set here by hand. Three
// LPs executed events (LVTs 120, 100, 140) and one did not; the sample's
// surface is over the three, its wasted ratio over all four. While one LP has
// no record at the cut there is no sample, and the optimism controller,
// reading the same records at the same cut, steers by the same width.
func TestRoughnessSampleAtCut(t *testing.T) {
	m := ringModel(4, 4, 4)
	m.Partition = []int{0, 1, 2, 3}
	cfg := DefaultConfig(1000)
	cfg.Optimism = OptimismConfig{
		Mode: OptimismAdaptive, Window: 100, Min: 50, Max: 100,
		Period: 1, HighWater: 0.2, LowWater: 0.1, MinSample: 1,
	}.withDefaults()
	cfg.Tracer = telemetry.NewTracer(64)
	cfg.Tracer.Bind([]int{0, 1, 2, 3}, time.Now())
	lps := newTestKernel(m, &cfg)
	d := lps[0].d

	const cut = 10
	for i, r := range []struct {
		lvt                  vtime.Time
		committed, rolledBck int64
	}{{120, 100, 20}, {100, 100, 40}, {140, 200, 40}, {vtime.NegInf, 0, 0}} {
		lps[i].lvt = r.lvt
		lps[i].st.EventsCommitted, lps[i].st.EventsRolledBack = r.committed, r.rolledBck
		if i < 3 {
			lps[i].recordProgress(cut)
		}
	}
	d.rough.sample(cut)
	if s := d.rough.fold.Summary(); s != nil || cfg.Tracer.System().Len() != 0 {
		t.Fatalf("LP 3 has no record at the cut, yet a sample was taken: %+v", s)
	}

	lps[3].recordProgress(cut)
	d.rough.sample(cut)
	lps[0].runOptimism()

	wantStd := math.Sqrt(800.0 / 3) // deviations -20, 0, +20 around 120
	var rough, opt []telemetry.Event
	for _, ev := range cfg.Tracer.Events() {
		switch ev.Kind {
		case telemetry.KindRoughness:
			rough = append(rough, ev)
		case telemetry.KindOptSwitch:
			opt = append(opt, ev)
		}
	}
	if len(rough) != 1 {
		t.Fatalf("%d roughness records, want 1", len(rough))
	}
	ev := rough[0]
	if ev.VT != cut || ev.A != 100 || ev.B != 140 || ev.C != 120 || ev.D != int64(wantStd) || ev.Object != 1 || ev.E != 250 {
		t.Errorf("sample: gvt %d min %d max %d mean %d std %d laggard %d wasted %d‰; want %d 100 140 120 %d 1 250",
			ev.VT, ev.A, ev.B, ev.C, ev.D, ev.Object, ev.E, cut, int64(wantStd))
	}
	s := d.rough.fold.Summary()
	if s == nil || s.Samples != 1 || s.MaxWidth != 40 || s.MeanWidth != 40 || math.Abs(s.MeanStdDev-wantStd) > 1e-9 {
		t.Errorf("summary %+v, want 1 sample of width 40 and std %.6f", s, wantStd)
	}
	// Waste of 100/400 is past HighWater 0.2: the controller tightens, and its
	// record carries the width it read.
	if len(opt) != 1 || opt[0].D != 40 {
		t.Fatalf("optimism switches %+v, want one that read width 40", opt)
	}
}

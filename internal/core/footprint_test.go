package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gowarp/internal/apps/phold"
	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/statesave"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// TestObjectFootprint pins what an object costs. Its runtime is at most 384
// bytes (656 before its controllers' cold state moved behind pointers). A run
// that builds sparse PHOLD, sets the kernel up and stops at virtual time 1
// makes at most 8.5 allocations and 1,100 bytes per object, model and result
// included (16.2 and 1,511 when every object was its own allocation with three
// one-element queues beside it; 9.8 while both names went through fmt.Sprintf),
// at the size of phold-pool and at sixteen times it: 7.8 measured, 8.1 now and
// then at the smaller size. The larger size is held to the same numbers under
// dynamic balance, which records nothing sized to the model per LP (8.0 to 8.9
// and 3,243 to 3,506 while every LP kept a whole-model execution table). Four
// are the model's — the object, its state and the name it formats for Validate
// and again for the result (model.IndexedName) — three are what every object
// must hold at start-up (the first snapshot's clone, its first event and that
// event's payload), and the kernel's own are per LP. The numbers are logged.
// And an object that has executed a dozen events and been fossil-collected executes
// the next dozen without allocating: its queues kept the arrays they grew into,
// its events and states came back from the pool and the vacated snapshot slots.
func TestObjectFootprint(t *testing.T) {
	if size := unsafe.Sizeof(simObject{}); size > 384 {
		var table strings.Builder
		typ := reflect.TypeOf(simObject{})
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			fmt.Fprintf(&table, "\n  %-14s offset %3d size %3d  %s", f.Name, f.Offset, f.Type.Size(), f.Type)
		}
		t.Errorf("unsafe.Sizeof(simObject{}) = %d, want <= 384:%s", size, table.String())
	}

	for _, size := range []struct {
		objects, lps int
		balance      BalanceMode
	}{{4096, 16, BalanceStatic}, {65536, 256, BalanceStatic}, {65536, 256, BalanceDynamic}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := phold.New(phold.Config{
			Objects: size.objects, TokensPerObject: 1, MeanDelay: 10,
			Locality: 0.9, LPs: size.lps, Seed: 7, Sparse: true,
		})
		cfg := DefaultConfig(1)
		cfg.Workers = 2
		cfg.Optimism = OptimismConfig{Mode: OptimismStatic, Window: 100}
		cfg.Checkpoint = statesave.Config{Mode: statesave.Periodic, Interval: 4}
		cfg.Balance = BalanceConfig{Mode: size.balance}
		res, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs := float64(after.Mallocs-before.Mallocs) / float64(size.objects)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(size.objects)
		t.Logf("null run, %d objects on %d LPs, %s balance: %.2f mallocs and %.0f bytes per object (%d events committed)",
			size.objects, size.lps, size.balance, mallocs, bytes, res.Stats.EventsCommitted)
		if mallocs > 8.5 || bytes > 1100 {
			t.Errorf("null run at %d objects / %d LPs, %s balance: %.2f mallocs and %.0f bytes per object, want <= 8.5 and <= 1100",
				size.objects, size.lps, size.balance, mallocs, bytes)
		}
	}

	cfg := DefaultConfig(vtime.Time(1) << 40)
	lp := newTestKernel(ringModel(8, 8, 8), &cfg)[0]
	dozenEach := func() {
		for i := 0; i < 12*len(lp.objs); i++ {
			lp.drainDeferred()
			if !lp.execStep() {
				panic("the ring drained")
			}
		}
		lp.applyGVT(lp.localMin(), lp.window, nil)
	}
	dozenEach()
	collected := lp.st.FossilCollected
	if n := testing.AllocsPerRun(4, dozenEach); n != 0 {
		t.Errorf("the dozen events after an object's first dozen and a fossil collection allocated %.1f times, want 0", n)
	}
	if collected == 0 || lp.st.EventsCommitted < int64(12*len(lp.objs)) {
		t.Fatalf("%d items collected, %d events committed: the rounds did not do what they measure",
			collected, lp.st.EventsCommitted)
	}
}

// TestTracedStaticObjectsHaveNoControllers: a tracer observes the controllers
// a configuration runs and builds none of its own. Under DefaultConfig with a
// Tracer every object's checkpointer and selector keep a nil controller
// through construction, init, a few hundred events and a GVT application;
// under the dynamic modes the same probe finds both.
func TestTracedStaticObjectsHaveNoControllers(t *testing.T) {
	hasCtl := func(part any) bool { return !reflect.ValueOf(part).Elem().FieldByName("ctl").IsNil() }
	for _, dynamic := range []bool{false, true} {
		cfg := DefaultConfig(vtime.Time(1) << 40)
		if dynamic {
			cfg.Checkpoint.Mode = statesave.Dynamic
			cfg.Cancellation.Mode = cancel.Dynamic
		}
		m := ringModel(8, 8, 8)
		cfg.Tracer = telemetry.NewTracer(1 << 10)
		cfg.Tracer.Bind([]int{0}, time.Now())
		lp := newTestKernel(m, &cfg)[0]
		if lp.tr == nil {
			t.Fatal("the LP has no trace recorder: the hooks were never offered")
		}
		for i := 0; i < 400; i++ {
			lp.drainDeferred()
			lp.execStep()
		}
		lp.applyGVT(lp.localMin(), lp.window, nil)
		for _, o := range lp.objs {
			if ckpt, sel := hasCtl(&o.ckpt), hasCtl(&o.sel); ckpt != dynamic || sel != dynamic {
				t.Errorf("dynamic modes %t: object %d has a checkpointer controller %t, a selector controller %t",
					dynamic, o.id, ckpt, sel)
			}
		}
	}
}

// TestOutgrownBlockSlotsPinNothing: the queues of an LP's objects start on
// slots of one block and move off them as they grow. Every object's input and
// output queue is driven through several doublings, by a backlog delivered at
// once and then executed, with a rollback parking records on the pending list;
// the holder audit must find each event's count to be exactly the references
// the live queues account for, so no queue wrote into a neighbour's slot and no
// array left behind is counted.
func TestOutgrownBlockSlotsPinNothing(t *testing.T) {
	cfg := DefaultConfig(vtime.Time(1) << 40)
	cfg.Audit = audit.New()
	lp := newTestKernel(ringModel(4, 4, 4), &cfg)[0]
	var id uint64
	for round := 0; round < 3; round++ {
		for _, o := range lp.objs {
			for i := 0; i < 40; i++ {
				id++
				e := lp.pool.Get()
				e.RecvTime, e.SendTime = o.lvt+vtime.Time(2+i), o.lvt
				e.Sender, e.Receiver, e.ID = o.id, o.id, 1<<40+id
				lp.routeOwned(e, false)
			}
		}
		lp.drainDeferred()
		for i := 0; i < 100; i++ {
			lp.execStep()
		}
		injectStraggler(lp, lp.objs[round])
		lp.auditHolders()
		lp.applyGVT(lp.localMin(), lp.window, nil)
	}
	for _, o := range lp.objs {
		if cap(o.in) <= firstInput {
			t.Fatalf("object %d never outgrew its input slot: nothing was exercised", o.id)
		}
	}
	if lp.st.Rollbacks == 0 {
		t.Fatal("no rollback: the pending list was never exercised")
	}
	if vs := cfg.Audit.Violations(); len(vs) > 0 {
		t.Fatalf("holder audit: %v", vs[0])
	}
}

// TestPeriodicSaveTimeIsSampled: under a periodic interval one checkpoint in
// saveTimedEvery is timed and counted that many times, so StateSaveTime stays
// an estimate of what a run that times every save reports — here a dynamic
// checkpointer whose control period never comes, on the same events — and
// does not read zero. Timing is noisy; the estimate has to land within a factor
// of two in one of three attempts.
func TestPeriodicSaveTimeIsSampled(t *testing.T) {
	run := func(mode statesave.Mode) (saveTime float64, saves int64) {
		cfg := DefaultConfig(vtime.Time(1) << 40)
		cfg.Checkpoint = statesave.Config{Mode: mode, Interval: 2, Period: math.MaxInt32}
		m := phold.New(phold.Config{
			Objects: 16, TokensPerObject: 2, MeanDelay: 10, Locality: 1, LPs: 1,
			Seed: 3, Sparse: true, StatePadding: 4 << 10,
		})
		lp := newTestKernel(m, &cfg)[0]
		lp.drainDeferred()
		for i := 0; i < 40_000; i++ {
			if !lp.execStep() {
				panic("the model drained")
			}
			if i%64 == 63 {
				lp.applyGVT(lp.localMin(), lp.window, nil)
			}
		}
		if mode == statesave.Dynamic && lp.objs[0].ckpt.Interval() != 2 {
			panic("the idle controller moved its interval")
		}
		return lp.st.StateSaveTime.Seconds(), lp.st.StatesSaved
	}
	var sampled, timed float64
	for attempt := 0; attempt < 3; attempt++ {
		var sampledSaves, timedSaves int64
		sampled, sampledSaves = run(statesave.Periodic)
		timed, timedSaves = run(statesave.Dynamic)
		if sampledSaves != timedSaves || sampledSaves < 10_000 {
			t.Fatalf("%d saves sampled, %d timed: the two runs are not the same run", sampledSaves, timedSaves)
		}
		t.Logf("%d saves: %.2f ms sampled one in %d, %.2f ms timing each", sampledSaves, sampled*1e3, saveTimedEvery, timed*1e3)
		if sampled > timed/2 && sampled < timed*2 {
			return
		}
	}
	t.Errorf("StateSaveTime %.2f ms sampled against %.2f ms timed: not within a factor of two", sampled*1e3, timed*1e3)
}

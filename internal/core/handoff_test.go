package core

import (
	"slices"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/comm"
	"gowarp/internal/vtime"
)

// TestEmptyWorkerAwaitsAdoption publishes a pure swap — each of two workers
// hands its only LP to the other — so both are momentarily empty. A worker
// that took "owns nothing" for "everything stopped" would retire there, the
// handoff to it would fail, and both LPs would end on one worker.
func TestEmptyWorkerAwaitsAdoption(t *testing.T) {
	m := phold.New(phold.Config{Objects: 8, TokensPerObject: 2, MeanDelay: 10, Locality: 0.5, LPs: 2, Seed: 3})
	seq, err := RunSequential(m, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2000)
	cfg.GVTPeriod = 200 * time.Microsecond
	d := newKernel(m, &cfg, comm.Peers{Local: []int{0, 1}}, inProc(m, &cfg), nil)
	d.lps[0].target.Store(1)
	d.lps[1].target.Store(0)
	d.epoch.Add(1)
	runWorkers(d)

	var committed int64
	for i, lp := range d.lps {
		for _, o := range lp.objs {
			o.commitRemaining()
		}
		committed += lp.st.EventsCommitted
		if got, want := int(lp.worker.Load()), 1-i; got != want {
			t.Errorf("LP %d ends on worker %d, want %d", i, got, want)
		}
	}
	for _, w := range d.workers {
		if w.ownedN.Load() != 1 || w.adoptions.Load() != 1 {
			t.Errorf("worker %d: owns %d LPs after %d adoptions, want 1 and 1", w.id, w.ownedN.Load(), w.adoptions.Load())
		}
	}
	if committed != seq.EventsExecuted {
		t.Errorf("committed %d events, the sequential kernel %d", committed, seq.EventsExecuted)
	}
}

// TestWorkerTreeRanges puts three LPs on each of two workers and holds every
// worker's one schedule tree to the objects it schedules: each running LP's
// range — its objects in order from its base, every slot its worker's map
// names — gives a localMin equal to the full scan over its objects, and the
// worker's Min is the least (vt, seq, id) key across its running LPs. Tokens
// that all move one tick an execution make equal receive times the rule,
// so the tie-break decides most picks. The checks run after init, after a
// migration batch between two LPs of one worker, after one of them is
// released to the other worker and adopted there, and after an LP stops,
// with worker picks in between.
func TestWorkerTreeRanges(t *testing.T) {
	m := ringModel(24, 24, 12)
	for i := range m.Partition {
		m.Partition[i] = i % 6
	}
	cfg := DefaultConfig(vtime.Time(1) << 40)
	cfg.Workers = 2
	k := &twin{lps: newTestKernel(m, &cfg)}
	d := k.lps[0].d
	w0, w1 := d.workers[0], d.workers[1]
	if len(w0.owned) != 3 || len(w1.owned) != 3 {
		t.Fatalf("workers own %d and %d LPs, want 3 and 3", len(w0.owned), len(w1.owned))
	}
	less := func(a, b *simObject) bool {
		ea, eb := a.head(), b.head()
		if ea.RecvTime != eb.RecvTime {
			return ea.RecvTime < eb.RecvTime
		}
		if ea.SendSeq != eb.SendSeq {
			return ea.SendSeq < eb.SendSeq
		}
		return a.id < b.id
	}
	check := func(when string) {
		t.Helper()
		k.settle()
		for _, w := range d.workers {
			base := 0
			var want *simObject
			for _, lp := range w.owned {
				if lp.base != base || lp.sched != &w.sched {
					t.Fatalf("%s: worker %d: LP %d's range starts at %d, want %d", when, w.id, lp.id, lp.base, base)
				}
				for i, o := range lp.objs {
					if w.objs[base+i] != o || int(o.slot) != i {
						t.Fatalf("%s: worker %d: LP %d's object %d is not at slot %d", when, w.id, lp.id, o.id, base+i)
					}
					if lp.running && o.head() != nil && (want == nil || less(o, want)) {
						want = o
					}
				}
				base += len(lp.objs)
				if !lp.running {
					if o, at := lp.next(); at != vtime.PosInf {
						t.Errorf("%s: stopped LP %d still offers object %d at %s", when, lp.id, o.id, at)
					}
					continue
				}
				if got, full := lp.localMin(), scanLocalMin(lp); got != full {
					t.Errorf("%s: LP %d: localMin %s, full scan %s", when, lp.id, got, full)
				}
			}
			if base != len(w.objs) {
				t.Fatalf("%s: worker %d maps %d slots, its LPs host %d objects", when, w.id, len(w.objs), base)
			}
			slot, at := w.sched.Min()
			switch {
			case want == nil && at != vtime.PosInf:
				t.Errorf("%s: worker %d picks slot %d at %s with nothing to run", when, w.id, slot, at)
			case want != nil && (at == vtime.PosInf || w.objs[slot] != want):
				t.Errorf("%s: worker %d picks slot %d at %s, want object %d at %s", when, w.id, slot, at, want.id, want.nextTime())
			}
		}
	}
	// run executes n events on each worker as its run loop picks them.
	run := func(n int) {
		for i := 0; i < n; i++ {
			for _, w := range d.workers {
				if slot, at := w.sched.Min(); at != vtime.PosInf {
					o := w.objs[slot]
					o.lp.exec(o, at)
				}
			}
			k.settle()
		}
	}

	check("after init")
	run(20)

	src, dst := w0.owned[0], w0.owned[1]
	src.migrateOutBatch([]*simObject{src.objs[0], src.objs[1]}, dst.id)
	check("after a migration batch")
	if len(src.objs) != 2 || len(dst.objs) != 6 {
		t.Fatalf("LPs %d and %d host %d and %d objects after the batch, want 2 and 6", src.id, dst.id, len(src.objs), len(dst.objs))
	}
	run(20)

	moved := w0.owned[2]
	moved.target.Store(int32(w1.id))
	d.epoch.Add(1)
	w0.applyRemap()
	w1.takeAdoptions()
	if len(w0.owned) != 2 || len(w1.owned) != 4 || moved.worker.Load() != int32(w1.id) {
		t.Fatalf("after the handoff the workers own %d and %d LPs, want 2 and 4", len(w0.owned), len(w1.owned))
	}
	check("after a release and adoption")
	run(20)

	moved.stop()
	// A stopped LP reads no more mail: settling leaves its spillbox alone.
	k.lps = slices.DeleteFunc(k.lps, func(lp *lpRun) bool { return lp == moved })
	check("after an LP stops")
	run(20)
	check("after running on")
}

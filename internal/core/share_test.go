package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/statesave"
	"gowarp/internal/vtime"
)

// The tests here pin the holder rules of package event where the kernel
// applies them: one struct per intra-LP message, generation stamps that are
// shared pointers, and the one-LP rule across a migration.

// reach counts o's references to each event it holds.
func reach(o *simObject) map[*event.Event]int {
	refs := make(map[*event.Event]int)
	o.remapEvents(func(e *event.Event) *event.Event {
		refs[e]++
		return e
	})
	return refs
}

// contents lists by value, in walk order, every event o refers to (the ring
// parks no orphan, so the order is the queues').
func contents(o *simObject) (evs []event.Event, payloads [][]byte) {
	o.remapEvents(func(e *event.Event) *event.Event {
		evs = append(evs, e.Key())
		payloads = append(payloads, append([]byte(nil), e.Payload...))
		return e
	})
	return evs, payloads
}

// TestMigrationPrivatizesSharedEvents packs an object whose input events are
// also its sender's output records and its own records' generation stamps —
// three holders of one struct, two of them about to be on another LP — and
// requires that nothing the object reaches afterwards is reachable from the
// object that stayed, that every count equals the references left, and that
// the queues read as before. Then the run goes on across the two LPs under
// the auditor's holder check.
func TestMigrationPrivatizesSharedEvents(t *testing.T) {
	for _, mode := range []cancel.Mode{cancel.StaticAggressive, cancel.StaticLazy} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig(vtime.Time(1) << 40)
			cfg.Cancellation = cancel.Config{Mode: mode}
			cfg.Checkpoint = statesave.Config{Mode: statesave.Periodic, Interval: 4}
			cfg.Audit = audit.New()
			m := ringModel(3, 2, 1) // 0 and 1 pass a token; 2 keeps LP 1 non-empty
			m.Partition = []int{0, 0, 1}
			k := &twin{lps: newTestKernel(m, &cfg)}
			src, dst := k.lps[0], k.lps[1]
			stays, leaves := src.k.objs[0], src.k.objs[1]
			k.exec(src, 9)
			if mode == cancel.StaticLazy {
				// A rollback parks the object's later outputs, generation
				// stamps and all, on the pending list; they travel too.
				injectStraggler(src, leaves)
				if leaves.out.PendingLen() == 0 {
					t.Fatal("the straggler parked no lazy output")
				}
			}

			mine, theirs := reach(leaves), reach(stays)
			threeWay := 0
			for _, e := range leaves.in {
				if theirs[e] > 0 && mine[e] >= 2 {
					threeWay++ // delivered here, recorded there, and a stamp here
				}
			}
			if threeWay == 0 {
				t.Fatal("no input event is both its sender's record and a generation stamp: nothing to privatize")
			}
			wantEvs, wantPayloads := contents(leaves)

			src.migrateOutBatch([]*simObject{leaves}, dst.id)

			mine, theirs = reach(leaves), reach(stays)
			for e, n := range mine {
				if theirs[e] > 0 {
					t.Errorf("%s is reachable from the object that left and from the one that stayed", e)
				}
				if e.Holders() != n {
					t.Errorf("%s: the departed object refers to it %d time(s), it has %d holder(s)", e, n, e.Holders())
				}
			}
			for e, n := range theirs {
				if e.Holders() != n {
					t.Errorf("%s: the object that stayed refers to it %d time(s), it has %d holder(s)", e, n, e.Holders())
				}
			}
			gotEvs, gotPayloads := contents(leaves)
			if len(gotEvs) != len(wantEvs) {
				t.Fatalf("the departed object refers to %d events, %d before packing", len(gotEvs), len(wantEvs))
			}
			for i := range gotEvs {
				if event.Compare(&gotEvs[i], &wantEvs[i]) != 0 || gotEvs[i].Kind != wantEvs[i].Kind ||
					!bytes.Equal(gotPayloads[i], wantPayloads[i]) {
					t.Errorf("reference %d reads %s after packing, %s before", i, &gotEvs[i], &wantEvs[i])
				}
			}

			// Install, and run on across the LP boundary: both LPs' holder
			// audits run at every GVT.
			k.settle()
			if dst.hosted(leaves.id) != leaves || src.hosted(leaves.id) != nil {
				t.Fatal("the capsule was not installed")
			}
			committed := src.st.EventsCommitted + dst.st.EventsCommitted
			for i := 0; i < 20; i++ {
				k.exec(src, 2)
				k.exec(dst, 2)
				k.settle()
				if i%4 == 3 {
					k.gvt()
				}
			}
			if got := src.st.EventsCommitted + dst.st.EventsCommitted; got == committed {
				t.Error("nothing committed after the migration")
			}
			if err := cfg.Audit.Err(); err != nil {
				t.Errorf("runtime audit: %v", err)
			}
		})
	}
}

// TestMigrationBatchInstall ships three objects in one capsule to an LP that
// hosts two and checks the schedule the install leaves behind: one slot per
// hosted object, numbered densely, and a minimum that is the earliest next
// event of all of them — the schedule is rebuilt once, after the whole batch
// is in. The run then goes on across both LPs under the auditor.
func TestMigrationBatchInstall(t *testing.T) {
	cfg := DefaultConfig(vtime.Time(1) << 40)
	cfg.Audit = audit.New()
	m := ringModel(6, 4, 2) // 0..3 pass two tokens; 4 and 5 sit on LP 1
	m.Partition = []int{0, 0, 0, 0, 1, 1}
	k := &twin{lps: newTestKernel(m, &cfg)}
	src, dst := k.lps[0], k.lps[1]
	k.exec(src, 12)
	batch := []*simObject{src.objs[1], src.objs[2], src.objs[3]}
	src.migrateOutBatch(batch, dst.id)
	k.settle()
	if len(dst.objs) != 5 {
		t.Fatalf("LP 1 hosts %d objects after the install, want 5", len(dst.objs))
	}
	want := vtime.PosInf
	for i, o := range dst.objs {
		if dst.hosted(o.id) != o || int(o.slot) != i {
			t.Fatalf("object %d: hosted %t, slot %d at index %d", o.id, dst.hosted(o.id) == o, o.slot, i)
		}
		want = vtime.Min(want, o.nextTime())
	}
	if o, key := dst.next(); key != want || want != vtime.PosInf && o.nextTime() != want {
		t.Fatalf("the schedule's minimum is %s, the hosted objects' earliest next event %s", key, want)
	}
	committed := src.st.EventsCommitted + dst.st.EventsCommitted
	for i := 0; i < 20; i++ {
		k.exec(src, 2)
		k.exec(dst, 2)
		if i%4 == 3 {
			k.gvt()
		}
	}
	if got := src.st.EventsCommitted + dst.st.EventsCommitted; got == committed {
		t.Error("nothing committed after the migration")
	}
	if err := cfg.Audit.Err(); err != nil {
		t.Errorf("runtime audit: %v", err)
	}
}

// TestAuditCatchesHolderMismatch breaks the count both ways — a hold nobody
// will release, and a release by nobody who held — and expects the auditor's
// walk at the next GVT to name the event.
func TestAuditCatchesHolderMismatch(t *testing.T) {
	for name, breakIt := range map[string]func(*lpRun, *event.Event){
		"leaked hold":    func(lp *lpRun, e *event.Event) { lp.pool.Share(e) },
		"stolen release": func(lp *lpRun, e *event.Event) { lp.pool.Put(e) },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(vtime.Time(1) << 40)
			cfg.Audit = audit.New()
			lp := newTestKernel(ringModel(4, 4, 4), &cfg)[0]
			for i := 0; i < 40; i++ {
				lp.drainDeferred()
				lp.execStep()
			}
			lp.applyGVT(lp.localMin(), lp.window, nil)
			if err := cfg.Audit.Err(); err != nil {
				t.Fatalf("violations before anything was broken: %v", err)
			}
			// Ahead of GVT again: the events executed since are held by their
			// input queue, their sender's record and the records they generated.
			for i := 0; i < 8; i++ {
				lp.execStep()
			}
			o := lp.objs[0]
			e := o.in[o.next-1]
			if e.Holders() < 2 {
				t.Fatalf("%s has %d holder(s); the ring shares nothing", e, e.Holders())
			}
			breakIt(lp, e)
			lp.applyGVT(lp.localMin(), lp.window, nil)
			err := cfg.Audit.Err()
			if err == nil || !strings.Contains(err.Error(), audit.InvHolders) {
				t.Fatalf("no %s violation in: %v", audit.InvHolders, err)
			}
		})
	}
}

// TestObjectIsOneAllocation: an object is one slot of its LP's block, whatever
// the configuration. newKernel and initObjects make allocations per LP, not
// per object — the objects, the slot each queue starts on, and under dynamic
// checkpointing, dynamic cancellation and the checkpoint codec the controllers'
// state, the comparison windows and the codecs, each one array for the LP — so
// doubling the hosted objects adds (next to) none. What an object's states and
// their encodings cost is its model's.
func TestObjectIsOneAllocation(t *testing.T) {
	measure := func(cfg Config, n int) (build, init, bytes int64) {
		m := ringModel(n, 2, 1)
		var a, b, c runtime.MemStats
		runtime.ReadMemStats(&a)
		d := newKernel(m, &cfg, comm.Peers{Local: []int{0}}, inProc(m, &cfg), nil)
		runtime.ReadMemStats(&b)
		d.lps[0].initObjects()
		runtime.ReadMemStats(&c)
		return int64(b.Mallocs - a.Mallocs), int64(c.Mallocs - b.Mallocs), int64(c.TotalAlloc - a.TotalAlloc)
	}
	perObject := func(cfg Config) (build, init, bytes float64) {
		const n = 2000
		b1, i1, y1 := measure(cfg, n)
		b2, i2, y2 := measure(cfg, 2*n)
		return float64(b2-b1) / n, float64(i2-i1) / n, float64(y2-y1) / n
	}
	t.Logf("unsafe.Sizeof(simObject{}) = %d", unsafe.Sizeof(simObject{}))
	static := DefaultConfig(vtime.Time(1) << 40)
	dynamic := static
	dynamic.Checkpoint = statesave.Config{Mode: statesave.Dynamic, Interval: 4}
	dynamic.Cancellation = cancel.Config{Mode: cancel.Dynamic}
	dynamic.Codec = codec.Config{Mode: codec.Dynamic}.WithDefaults()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"static", static}, {"dynamic checkpointing, cancellation and codec", dynamic}} {
		build, init, bytes := perObject(tc.cfg)
		t.Logf("%s: %.2f + %.2f allocations and %.0f bytes per object (newKernel + initObjects)", tc.name, build, init, bytes)
		// The tables indexed by object (shared.objs, the routing table, the
		// schedule heap) and the block's arrays grow with n, a few allocations
		// in all.
		if build > 0.05 || init > 0.05 {
			t.Errorf("%s: an object costs %.2f allocations in newKernel and %.2f in initObjects, want none of its own", tc.name, build, init)
		}
	}
}

// BenchmarkLocalSend is the layer number for an intra-LP message: pairs of
// objects on one LP pass a token back and forth through the real path —
// context.Send, routeRecorded, drainDeferred, deliver, executeNext — with a
// GVT application (fossil collection) every 64 events. It reports ns and
// event-pool Gets per executed event, by payload size and by how many objects
// the LP hosts: 64 sit in L2, 4,096 do not.
func BenchmarkLocalSend(b *testing.B) {
	for _, objects := range []int{64, 4096} {
		for _, payload := range []int{0, 16, 256} {
			b.Run(fmt.Sprintf("objects=%d/payload=%d", objects, payload), func(b *testing.B) {
				cfg := DefaultConfig(vtime.Time(1) << 40)
				lp := newTestKernel(pairModel(objects, payload), &cfg)[0]
				run := func(n int) {
					for i := 0; i < n; i++ {
						if !lp.execStep() {
							b.Fatal("the pairs drained")
						}
						if i%64 == 63 {
							lp.applyGVT(lp.localMin(), lp.window, nil)
						}
					}
				}
				lp.drainDeferred()
				run(8 * objects) // every queue and the pool at steady capacity
				allocs, reuses := lp.pool.Stats()
				b.ReportAllocs()
				b.ResetTimer()
				run(b.N)
				b.StopTimer()
				a, r := lp.pool.Stats()
				b.ReportMetric(float64(a+r-allocs-reuses)/float64(b.N), "gets/event")
			})
		}
	}
}

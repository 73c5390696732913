package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"gowarp/internal/apps/phold"
	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/comm"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/statesave"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// The tests here hold the O(activity) GVT bookkeeping — the lazy list behind
// localMin, the history list and fossil floor behind applyGVT — to the
// O(objects) scans it replaced. The scans live on below as reference
// implementations.

// scanLocalMin is the reference localMin: drain and fold every hosted object.
func scanLocalMin(lp *lpRun) vtime.Time {
	for _, o := range lp.objs {
		o.drainStale()
	}
	lp.drainDeferred()
	min := vtime.PosInf
	for _, o := range lp.objs {
		min = vtime.Min(min, vtime.Min(o.nextTime(), o.out.MinPending()))
	}
	return min
}

// scanApplyGVT is the reference applyGVT: move the horizon and fossil-collect
// every hosted object.
func scanApplyGVT(lp *lpRun, g vtime.Time) {
	lp.horizon = horizonAt(g, lp.window)
	for _, o := range lp.objs {
		o.fossilCollect(g)
	}
}

// twin is one synchronously driven kernel. Two twins built from the same
// model and configuration take the same operations; scan selects the
// reference implementations on one of them.
type twin struct {
	lps  []*lpRun
	scan bool
}

func (k *twin) localMin(lp *lpRun) vtime.Time {
	if k.scan {
		return scanLocalMin(lp)
	}
	return lp.localMin()
}

// exec runs up to n events on lp the way the run loop does, going idle (and
// draining stale lazy outputs) when nothing is executable.
func (k *twin) exec(lp *lpRun, n int) {
	for i := 0; i < n; i++ {
		lp.drainInbox()
		lp.drainDeferred()
		if lp.execStep() {
			continue
		}
		if k.scan {
			for _, o := range lp.objs {
				o.drainStale()
			}
		} else {
			lp.drainLazy()
		}
		return
	}
}

// settle delivers everything in flight: aggregation buffers, spillboxes
// (installing any migration capsule) and deferred intra-LP messages.
func (k *twin) settle() {
	for moved := true; moved; {
		moved = false
		for _, lp := range k.lps {
			if lp.ep.Buffered() > 0 || lp.spill.n.Load() > 0 || len(lp.deferred) > 0 {
				moved = true
			}
			lp.ep.FlushAll(comm.FlushIdle)
			lp.drainInbox()
			lp.drainDeferred()
		}
	}
}

// gvt computes the true GVT — nothing in flight, minimum over the LPs'
// local minima — and applies it everywhere. A local minimum may itself send
// (draining a stale lazy output emits its anti-message), so the cut is
// retried until it is taken with nothing in transit.
func (k *twin) gvt() vtime.Time {
	for {
		k.settle()
		g := vtime.PosInf
		for _, lp := range k.lps {
			g = vtime.Min(g, k.localMin(lp))
		}
		quiet := true
		for _, lp := range k.lps {
			if lp.ep.Buffered() > 0 || lp.spill.n.Load() > 0 || len(lp.deferred) > 0 {
				quiet = false
			}
		}
		if !quiet {
			continue
		}
		for _, lp := range k.lps {
			lp.gvtMgr.Apply(g)
			if k.scan {
				scanApplyGVT(lp, g)
			} else {
				lp.applyGVT(g, lp.window, nil)
			}
		}
		return g
	}
}

// migrate moves lp's i-th hosted object to LP to; with back set the
// destination installs it and sends it straight home again.
func (k *twin) migrate(lp *lpRun, i, to int, back bool) {
	if len(lp.objs) < 2 || to == lp.id {
		return
	}
	o := lp.objs[i%len(lp.objs)]
	lp.migrateOutBatch([]*simObject{o}, to)
	if !back {
		return
	}
	dst := k.lps[to]
	dst.drainInbox()
	if dst.hosted(o.id) != nil && len(dst.objs) > 1 {
		dst.migrateOutBatch([]*simObject{o}, lp.id)
		lp.drainInbox()
	}
}

// objectShape is what of an object's queues fossil collection, cancellation
// and migration can change.
type objectShape struct {
	host                                  int
	pending, processed, pendingOut, sent  int
	snaps, orphans                        int
	processedBase, committedAbs, rollback int64
}

// shape summarises a kernel for twin comparison: per-LP counters (wall-clock
// fields zeroed) and event-pool traffic, per-object queue lengths.
func (k *twin) shape() ([]stats.Counters, [][2]int64, []objectShape) {
	var sts []stats.Counters
	var pools [][2]int64
	objs := make([]objectShape, len(k.lps[0].k.objs))
	for _, lp := range k.lps {
		st := lp.st
		st.StateSaveTime, st.CoastForwardTime, st.GVTTime = 0, 0, 0
		sts = append(sts, st)
		a, r := lp.pool.Stats()
		pools = append(pools, [2]int64{a, r})
		for _, o := range lp.objs {
			objs[o.id] = objectShape{
				host: lp.id, pending: len(o.in) - o.next, processed: o.next,
				pendingOut: o.out.PendingLen(), sent: o.out.SentLen(),
				snaps: o.stateQ.Len(), orphans: len(o.orphans),
				processedBase: o.processedBase, committedAbs: o.committedAbs, rollback: o.rollbacks,
			}
		}
	}
	return sts, pools, objs
}

// diffCounters names the fields in which a and b differ.
func diffCounters(a, b stats.Counters) string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if x, y := va.Field(i).Interface(), vb.Field(i).Interface(); x != y {
			out = append(out, fmt.Sprintf("%s %v / %v", va.Type().Field(i).Name, x, y))
		}
	}
	return strings.Join(out, ", ")
}

// TestActivityListsMatchFullScan drives two twin kernels through the same
// seeded random sequence of kernel operations — uneven execution (hence
// stragglers, anti-messages and, by configuration, lazy and passive
// cancellation), deliveries, GVT applications, migrations out and back — one
// twin on the shipped lazy/history lists, the other on the full scans. After
// every operation every LP's local minimum, counters (commit and fossil
// accounting among them), pool traffic and every object's queue lengths must
// agree, and the whole run must commit what the sequential kernel executes.
func TestActivityListsMatchFullScan(t *testing.T) {
	const end = vtime.Time(600)
	variants := []struct {
		name string
		set  func(*Config)
	}{
		{"aggressive", func(c *Config) {}},
		{"lazy", func(c *Config) { c.Cancellation = cancel.Config{Mode: cancel.StaticLazy} }},
		{"dynamic-faw", func(c *Config) {
			c.Cancellation = cancel.Config{Mode: cancel.Dynamic, FilterDepth: 8, Period: 2}
			c.Aggregation = comm.AggConfig{Policy: comm.FAW, Window: time.Hour, MaxEvents: 5}
		}},
		// The corner PR 9's deadlock came from: an unsent lazy anti-message
		// behind the optimism horizon must still be drained and counted.
		{"lazy-window", func(c *Config) {
			c.Cancellation = cancel.Config{Mode: cancel.StaticLazy}
			c.Optimism.Window = 25
		}},
	}
	for _, v := range variants {
		for seed := int64(1); seed <= 3; seed++ {
			v, seed := v, seed
			t.Run(fmt.Sprintf("%s/seed%d", v.name, seed), func(t *testing.T) {
				mk := func() *model.Model {
					return phold.New(phold.Config{
						Objects: 18, TokensPerObject: 2, MeanDelay: 6,
						Locality: 0.3, LPs: 3, Seed: uint64(seed),
					})
				}
				cfg := DefaultConfig(end)
				cfg.Checkpoint.Interval = 3
				v.set(&cfg)
				cfgA, cfgB := cfg, cfg
				fast := &twin{lps: newTestKernel(mk(), &cfgA)}
				ref := &twin{lps: newTestKernel(mk(), &cfgB), scan: true}
				rng := rand.New(rand.NewSource(seed))

				step := 0
				check := func(op string) {
					t.Helper()
					for i := range fast.lps {
						got, want := fast.localMin(fast.lps[i]), ref.localMin(ref.lps[i])
						if got != want {
							t.Fatalf("step %d (%s): LP %d local minimum %s, full scan %s", step, op, i, got, want)
						}
					}
					fs, fp, fo := fast.shape()
					rs, rp, ro := ref.shape()
					for i := range fs {
						if fs[i] != rs[i] {
							t.Fatalf("step %d (%s): LP %d counters differ (lists / scan): %s", step, op, i, diffCounters(fs[i], rs[i]))
						}
						if fp[i] != rp[i] {
							t.Fatalf("step %d (%s): LP %d pool allocs/reuses %v, scan %v", step, op, i, fp[i], rp[i])
						}
					}
					for i := range fo {
						if fo[i] != ro[i] {
							t.Fatalf("step %d (%s): object %d queues differ\nlists: %+v\nscan:  %+v", step, op, i, fo[i], ro[i])
						}
					}
				}

				var g vtime.Time
				for g = vtime.NegInf; !g.After(end); step++ {
					if step > 200_000 {
						t.Fatalf("no termination: GVT %s after %d steps", g, step)
					}
					lp, n, to := rng.Intn(3), 1+rng.Intn(12), rng.Intn(3)
					pick := rng.Intn(1 << 16)
					var op string
					switch r := rng.Intn(100); {
					case r < 70:
						op = "exec"
						fast.exec(fast.lps[lp], n)
						ref.exec(ref.lps[lp], n)
					case r < 80:
						op = "deliver"
						fast.settle()
						ref.settle()
					case r < 90:
						op = "gvt"
						g = fast.gvt()
						if rg := ref.gvt(); rg != g {
							t.Fatalf("step %d: GVT %s, full scan %s", step, g, rg)
						}
					default:
						op = "migrate"
						back := pick&1 == 0
						fast.migrate(fast.lps[lp], pick, to, back)
						ref.migrate(ref.lps[lp], pick, to, back)
					}
					check(op)
				}

				var committed, rollbacks, lazy int64
				for _, lp := range fast.lps {
					for _, o := range lp.objs {
						o.commitRemaining()
					}
					committed += lp.st.EventsCommitted
					rollbacks += lp.st.Rollbacks
					lazy += lp.st.LazyHits + lp.st.LazyMisses
				}
				seq, err := RunSequential(mk(), end, 0)
				if err != nil {
					t.Fatal(err)
				}
				if committed != seq.EventsExecuted {
					t.Errorf("committed %d events, sequential kernel executed %d", committed, seq.EventsExecuted)
				}
				if rollbacks == 0 {
					t.Error("the sequence never rolled back; nothing was exercised")
				}
				if v.name != "aggressive" && lazy == 0 {
					t.Error("no lazy or passive comparison happened; the lazy list was never exercised")
				}
			})
		}
	}
}

// TestGVTTouchesOnlyActiveObjects is the visit-count guard: on an LP hosting
// 4096 objects of which 8 exchange events, GVT participation and application
// reach at most those 8. The idle objects' queues are booby-trapped after the
// first GVT (which reclaims nothing of theirs but is entitled to look), so
// any later visit panics: fossilCollect on an emptied state queue, drainStale
// and MinPending on a pending entry with no event.
func TestGVTTouchesOnlyActiveObjects(t *testing.T) {
	const hosted, active = 4096, 8
	cfg := DefaultConfig(vtime.Time(1) << 40)
	cfg.Cancellation = cancel.Config{Mode: cancel.StaticLazy}
	cfg.GVTPeriod = time.Hour
	lp := newTestKernel(ringModel(hosted, active, active), &cfg)[0]

	lp.applyGVT(lp.localMin(), lp.window, nil)
	for _, o := range lp.objs[active:] {
		o.stateQ = statesave.Queue{}
		// Under lazy cancellation a rollback parks the record on the pending
		// list; off lp.lazy, nothing is entitled to find it there.
		o.out.RecordSent(nil, &event.Event{RecvTime: 1})
		o.out.OnRollback(&event.Event{})
		if o.out.PendingLen() != 1 {
			t.Fatal("the trap was not set")
		}
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			lp.drainDeferred()
			if !lp.execStep() {
				t.Fatal("ring drained")
			}
		}
		if round%5 == 0 {
			// A straggler in an active object's past parks its later outputs
			// on the lazy list.
			o := lp.objs[round%active]
			injectStraggler(lp, o)
			if !o.inLazy {
				t.Fatalf("round %d: rolled-back object %d not on the lazy list", round, o.id)
			}
		}
		lp.drainLazy() // what idle() and worker.idle() walk
		if len(lp.lazy) > active || len(lp.hist) > active {
			t.Fatalf("round %d: %d objects on the lazy list and %d on the history list, %d active",
				round, len(lp.lazy), len(lp.hist), active)
		}
		lp.applyGVT(lp.localMin(), lp.window, nil)
	}
	if lp.st.FossilCollected == 0 || lp.st.EventsCommitted == 0 {
		t.Fatalf("nothing reclaimed (%d) or committed (%d): the guard exercised nothing",
			lp.st.FossilCollected, lp.st.EventsCommitted)
	}

	// The traps are live: each kind of visit to an idle object panics.
	idle := lp.objs[active]
	for name, visit := range map[string]func(){
		"fossilCollect": func() { idle.fossilCollect(vtime.PosInf) },
		"drainStale":    idle.drainStale,
		"MinPending":    func() { idle.out.MinPending() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a trapped object did not panic", name)
				}
			}()
			visit()
		}()
	}

	// Inside the GVT period the initiator must not even compute its minimum:
	// with the schedule heap gone, localMin would be a nil dereference.
	lp.maybeGVT(false) // starts (and, single LP, finishes) a computation
	cycles := lp.st.GVTCycles
	lp.sched = nil
	lp.maybeGVT(false)
	if lp.st.GVTCycles != cycles {
		t.Fatal("a second computation started inside the period")
	}
}

// injectStraggler sends o a fresh event one tick before the last one it
// executed, rolling that execution back.
func injectStraggler(lp *lpRun, o *simObject) {
	last := o.in[o.next-1]
	s := lp.pool.Get()
	s.RecvTime, s.SendTime = last.RecvTime-1, last.RecvTime-2
	s.Sender, s.Receiver = o.id, o.id
	s.ID = 1<<40 + uint64(lp.st.Rollbacks)
	lp.routeOwned(s, false)
	lp.drainDeferred()
}

// TestAuditCatchesBrokenActivityLists breaks the bookkeeping both ways — an
// object with pending lazy outputs dropped from the lazy list, an object
// with reclaimable history given a fossil floor of +inf — and expects the
// auditor's full scans to name each.
func TestAuditCatchesBrokenActivityLists(t *testing.T) {
	cfg := DefaultConfig(vtime.Time(1) << 40)
	cfg.Cancellation = cancel.Config{Mode: cancel.StaticLazy}
	cfg.Audit = audit.New()
	lp := newTestKernel(ringModel(4, 4, 4), &cfg)[0]
	run := func() {
		for i := 0; i < 40; i++ {
			lp.drainDeferred()
			lp.execStep()
		}
	}
	run()
	lp.applyGVT(lp.localMin(), lp.window, nil)
	run() // ahead of GVT again, so a straggler above it has work to undo
	if err := cfg.Audit.Err(); err != nil {
		t.Fatalf("violations before anything was broken: %v", err)
	}

	o := lp.objs[0]
	injectStraggler(lp, o) // rollback: later outputs go to the lazy pending list
	if o.out.PendingLen() == 0 {
		t.Fatal("the straggler parked no lazy output")
	}
	o.inLazy, lp.lazy = false, nil
	g := lp.localMin()
	lp.objs[1].fossilFloor = vtime.PosInf
	lp.applyGVT(g, lp.window, nil)

	err := cfg.Audit.Err()
	if err == nil {
		t.Fatal("the auditor saw nothing")
	}
	for _, inv := range []string{audit.InvLocalMin, audit.InvFossilSkip} {
		if !strings.Contains(err.Error(), inv) {
			t.Errorf("no %s violation in: %v", inv, err)
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/pq"
	"gowarp/internal/vtime"
)

// The layer benchmarks beside the input queue and the worker's rekey
// (DESIGN.md "The input queue" and EXPERIMENTS.md "An input queue shaped like
// its traffic" record the figures).

var benchEventSink *event.Event

// benchEvent draws an event received at t from pool.
func benchEvent(pool *event.Pool, t vtime.Time, id uint64) *event.Event {
	e := pool.Get()
	e.RecvTime, e.SendTime, e.Sender, e.ID = t, t-1, 1, id
	return e
}

// BenchmarkInputQueue times the queue operations of a simulation object, and
// nothing else of the object, on its input queue ("inputq": simObject's own
// place, insert, find, removeAt, dropProcessed and cursor) and on the
// structures the queue replaced ("heapset": refQueue, a pq.HeapSet beside a
// processed list):
//
//   - hold: execute the head and deliver a successor an exponential delay
//     later, at a standing depth of unprocessed events, fossil-collecting the
//     processed events every 64 — the copy that closes the gap moves the
//     unprocessed part too, so this is where the slice pays for its depth;
//   - annihilate: an anti-message for a random unprocessed event, and a fresh
//     arrival in its stead;
//   - rollback32: a straggler behind the last 32 processed events, their
//     requeue, and the 33 executions that follow.
func BenchmarkInputQueue(b *testing.B) {
	const mean = 1 << 20
	for _, depth := range []int{1, 4, 16, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("hold/depth=%d/inputq", depth), func(b *testing.B) {
			lp, o := newSinkKernel(&sinkObject{}, 1)
			r := model.NewRand(1)
			var id uint64
			for ; id < uint64(depth); id++ {
				e := benchEvent(lp.pool, vtime.Time(r.Exp(mean)), id)
				o.insert(o.place(e), e)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := o.in[o.next]
				o.next++
				id++
				s := benchEvent(lp.pool, e.RecvTime+vtime.Time(r.Exp(mean)), id)
				o.insert(o.place(s), s)
				if o.next == 64 {
					o.dropProcessed(64)
				}
			}
		})
		b.Run(fmt.Sprintf("hold/depth=%d/heapset", depth), func(b *testing.B) {
			q, pool := refQueue{pending: pq.NewHeapSet()}, event.NewPool()
			r := model.NewRand(1)
			var id uint64
			for ; id < uint64(depth); id++ {
				q.pending.Push(benchEvent(pool, vtime.Time(r.Exp(mean)), id))
			}
			recycle := pool.Put
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.execute()
				id++
				q.pending.Push(benchEvent(pool, e.RecvTime+vtime.Time(r.Exp(mean)), id))
				if len(q.processed) == 64 {
					q.drop(64, recycle)
				}
			}
		})
	}

	for _, depth := range []int{4, 1024} {
		b.Run(fmt.Sprintf("annihilate/depth=%d/inputq", depth), func(b *testing.B) {
			lp, o := newSinkKernel(&sinkObject{}, 1)
			r := model.NewRand(1)
			live := make([]event.Event, depth) // the anti-messages' source: keys, not the queue's events
			var id uint64
			for ; id < uint64(depth); id++ {
				e := benchEvent(lp.pool, vtime.Time(r.Intn(mean)), id)
				o.insert(o.place(e), e)
				live[id] = e.Key()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				victim := &live[r.Intn(depth)]
				victim.Sign = event.Negative
				_, pos := o.find(victim)
				o.removeAt(pos)
				id++
				e := benchEvent(lp.pool, vtime.Time(r.Intn(mean)), id)
				o.insert(o.place(e), e)
				*victim = e.Key()
			}
		})
		b.Run(fmt.Sprintf("annihilate/depth=%d/heapset", depth), func(b *testing.B) {
			q, pool := refQueue{pending: pq.NewHeapSet()}, event.NewPool()
			r := model.NewRand(1)
			live := make([]event.Event, depth)
			var id uint64
			for ; id < uint64(depth); id++ {
				e := benchEvent(pool, vtime.Time(r.Intn(mean)), id)
				q.pending.Push(e)
				live[id] = e.Key()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				victim := &live[r.Intn(depth)]
				victim.Sign = event.Negative
				pool.Put(q.pending.Remove(pq.IdentityOf(victim)))
				id++
				e := benchEvent(pool, vtime.Time(r.Intn(mean)), id)
				q.pending.Push(e)
				*victim = e.Key()
			}
		})
	}

	// Both rollback rows start from 32 processed and 4 unprocessed events ten
	// ticks apart. Every straggler lands one tick before the 32 and, by its
	// send sequence, behind the stragglers before it.
	const back, ahead = 32, 4
	b.Run("rollback32/inputq", func(b *testing.B) {
		lp, o := newSinkKernel(&sinkObject{}, 1)
		for i := 0; i < back+ahead; i++ {
			o.insert(i, benchEvent(lp.pool, vtime.Time(10*(i+1)), uint64(i)))
		}
		o.next = back
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := benchEvent(lp.pool, 9, uint64(back+ahead+i))
			s.SendSeq = uint32(i)
			at := o.place(s)
			o.next = at
			o.insert(at, s)
			for k := 0; k <= back; k++ {
				benchEventSink = o.in[o.next]
				o.next++
			}
			if o.next == 64+back {
				o.dropProcessed(64)
			}
		}
	})
	b.Run("rollback32/heapset", func(b *testing.B) {
		q, pool := refQueue{pending: pq.NewHeapSet()}, event.NewPool()
		for i := 0; i < back+ahead; i++ {
			q.pending.Push(benchEvent(pool, vtime.Time(10*(i+1)), uint64(i)))
		}
		for i := 0; i < back; i++ {
			q.execute()
		}
		recycle := pool.Put
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := benchEvent(pool, 9, uint64(back+ahead+i))
			s.SendSeq = uint32(i)
			q.requeue(s)
			q.pending.Push(s)
			for k := 0; k <= back; k++ {
				benchEventSink = q.execute()
			}
			if len(q.processed) == 64+back {
				q.drop(64, recycle)
			}
		}
	})
}

// BenchmarkWorkerRekey times worker.rekey alone. One op moves the least key of
// one of 16 owned LPs (1,024 objects each, one unprocessed event apiece) a
// thousand ticks on, in the LP's heap only, and re-keys that LP in the
// worker's queue. "minkey" is worker.rekey, which copies the key lp.refresh
// left in the LP's heap; "peek" is what it did before, going back to the
// object and the head of its queue for the send sequence — three dependent
// loads in memory nothing has touched since the last full cycle of objects.
// In the kernel the execution that follows touches that object anyway, so the
// miss rekey no longer takes is taken there: see EXPERIMENTS.md for what is
// left end to end.
func BenchmarkWorkerRekey(b *testing.B) {
	const lps, perLP = 16, 1024
	peek := func(w *worker, i int) {
		lp := w.owned[i]
		slot, t := lp.sched.Min()
		o := lp.objs[slot]
		w.sched.UpdateKey(i, t, uint64(o.head().SendSeq), int32(o.id))
	}
	for _, v := range []struct {
		name  string
		rekey func(*worker, int)
	}{{"minkey", (*worker).rekey}, {"peek", peek}} {
		b.Run(v.name, func(b *testing.B) {
			m := ringModel(lps*perLP, lps*perLP, lps*perLP)
			for i := range m.Partition {
				m.Partition[i] = i % lps
			}
			cfg := DefaultConfig(vtime.Time(1) << 40)
			cfg.Workers = 1
			all := newTestKernel(m, &cfg)
			w := all[0].d.workers[0]
			for _, lp := range all {
				lp.drainInbox()
				lp.drainDeferred()
			}
			w.rebuild()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lp := w.owned[i%lps]
				slot, t, seq, id := lp.sched.MinKey()
				lp.sched.UpdateKey(slot, t+1000, seq, id)
				v.rekey(w, i%lps)
			}
		})
	}
}

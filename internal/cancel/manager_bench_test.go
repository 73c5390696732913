package cancel

import (
	"testing"
	"time"

	"gowarp/internal/event"
	"gowarp/internal/stats"
	"gowarp/internal/vtime"
)

// BenchmarkManager is one object's output queue at the three calls a rollback
// storm multiplies. An op is one cycle over 64 records, whose generating
// events are the inputs at virtual times 1 to 64: RecordSent notes the 64
// outputs, aggressive OnRollback then cancels the newer half with one
// anti-message each, and FossilCollect releases every record below GVT. Each
// sub-benchmark times its call alone and reports it per record or per
// anti-message; every cycle must read 0 allocs/op once the queue and the pool
// have grown.
func BenchmarkManager(b *testing.B) {
	const window = 64
	pool := event.NewPool()
	var st stats.Counters
	emit := func(e *event.Event) { pool.Put(e) }
	gens := make([]*event.Event, window)
	for i := range gens {
		gens[i] = &event.Event{RecvTime: vtime.Time(i + 1), Sender: 1, Receiver: 2, ID: uint64(i + 1)}
	}
	outs := make([]*event.Event, window)
	fill := func(m *Manager) time.Duration {
		for i := range outs {
			e := pool.Get()
			e.SendTime, e.RecvTime = vtime.Time(i+1), vtime.Time(i+6)
			e.Sender, e.Receiver, e.ID = 2, 3, uint64(i+1)
			outs[i] = e
		}
		t0 := time.Now()
		for i, e := range outs {
			m.RecordSent(e, gens[i])
		}
		return time.Since(t0)
	}
	fossil := func(m *Manager) time.Duration {
		t0 := time.Now()
		m.FossilCollect(window + 1)
		return time.Since(t0)
	}
	newManager := func() *Manager {
		m := NewManager(NewSelector(Config{Mode: StaticAggressive}), emit, &st, pool)
		fill(m)
		fossil(m)
		return m
	}
	b.Run("RecordSent", func(b *testing.B) {
		m := newManager()
		var d time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d += fill(m)
			fossil(m)
		}
		b.ReportMetric(float64(d.Nanoseconds())/float64(b.N*window), "ns/record")
	})
	b.Run("OnRollbackAggressive", func(b *testing.B) {
		m := newManager()
		var d time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fill(m)
			t0 := time.Now()
			m.OnRollback(gens[window/2])
			d += time.Since(t0)
			fossil(m)
		}
		b.ReportMetric(float64(d.Nanoseconds())/float64(b.N*window/2), "ns/anti")
	})
	b.Run("FossilCollect", func(b *testing.B) {
		m := newManager()
		var d time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fill(m)
			d += fossil(m)
		}
		b.ReportMetric(float64(d.Nanoseconds())/float64(b.N*window), "ns/record")
	})
}

package comm

import (
	"testing"
	"time"

	"gowarp/internal/spin"
	"gowarp/internal/stats"
)

// BenchmarkEndpointSend is the aggregation layer's own number: what an
// inter-LP event costs its sender under each policy, over a sender that
// charges nothing (the kernel's mailbox, a socket's out-buffer) and over one
// that charges the paper's 30 µs a message. One op is one scheduling round as
// a worker runs it — the round's clock read, the pump's Poll, one Send to one
// destination — followed by a 50 µs gap that is not counted, so the traffic is
// sparse the way a simulation's is (tens of thousands of events a second to
// one destination; smmp-facets offers thousands) and not the millions a tight
// loop would offer, which every policy batches alike.
// ns/event is the time spent inside the round, two clock reads of the
// benchmark's own included; ev/msg the events per physical message; window-ns
// where destination 1's window stood at the end (SAAW adapts it, FAW and none
// report the configured one).
func BenchmarkEndpointSend(b *testing.B) {
	const gap = 50 * time.Microsecond
	event := ev(1, 10, 16)
	for _, link := range []struct {
		name string
		cost time.Duration
	}{{"free", 0}, {"30us", DefaultCostModel().PerMessage}} {
		for _, policy := range []Policy{NoAggregation, FAW, SAAW} {
			b.Run(policy.String()+"/"+link.name, func(b *testing.B) {
				var st stats.Counters
				e := NewSendEndpoint(spinSender(link.cost), 2, 0, AggConfig{Policy: policy}, &st)
				var busy time.Duration
				for i := 0; i < b.N; i++ {
					now := time.Now()
					e.Poll(now)
					e.Send(event, 1, false)
					busy += time.Since(now)
					spin.Spin(gap)
				}
				e.FlushAll(FlushIdle)
				b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N), "ns/event")
				b.ReportMetric(float64(st.EventMsgsSent)/float64(st.PhysicalMsgsSent), "ev/msg")
				b.ReportMetric(float64(e.Window(1).Nanoseconds()), "window-ns")
			})
		}
	}
}

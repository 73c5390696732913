package core

import (
	"testing"

	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// BenchmarkCrossLPSend times a message between LPs end to end in one process:
// two LPs on one worker, each hosting one object that passes a token to the
// other's. One op is one event each way — an execution that sends through its
// LP's endpoint into the run's transport, which hands the packet to the sink
// and so to the other LP's spillbox, and that LP's drain of it into the input
// queue — with a GVT application on both every 64 ops, as in LocalSend.
func BenchmarkCrossLPSend(b *testing.B) {
	m := &model.Model{Name: "cross", Partition: []int{0, 1}}
	for i := 0; i < 2; i++ {
		m.Objects = append(m.Objects, &pingObject{name: []string{"cross.0", "cross.1"}[i], peer: event.ObjectID(1 - i), seeded: true, payload: make([]byte, 8)})
	}
	cfg := DefaultConfig(vtime.Time(1) << 40)
	lps := newTestKernel(m, &cfg)
	run := func(n int) {
		for i := 0; i < n; i++ {
			for _, lp := range lps {
				lp.drainInbox()
				if i%64 == 63 && lp.id == 1 { // every spillbox drained: nothing in transit
					g := min(lps[0].localMin(), lps[1].localMin())
					for _, lp := range lps {
						lp.applyGVT(g, lp.window, nil)
					}
				}
				if !lp.execStep() {
					b.Fatal("the token stopped")
				}
			}
		}
	}
	run(4096) // every queue and the pool at steady capacity
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

package core

import (
	"fmt"
	"testing"
	"time"

	"gowarp/internal/cancel"
	"gowarp/internal/vtime"
)

// The two layer benchmarks beside the GVT bookkeeping: one LP hosting 64,
// 512 or 4096 objects of which benchActive exchange events. What they time
// must follow the active count, not the hosted count (EXPERIMENTS.md records
// the figures, and the ones the O(objects) scans gave).

const benchActive = 16

var benchHosted = []int{64, 512, 4096}

var benchSink vtime.Time

// benchKernel returns a warmed one-LP ring kernel under lazy cancellation:
// every slice, pool and queue at steady capacity, history collected up to a
// recent GVT.
func benchKernel(hosted int) *lpRun {
	cfg := DefaultConfig(vtime.Time(1) << 40)
	cfg.Cancellation = cancel.Config{Mode: cancel.StaticLazy}
	lp := newTestKernel(ringModel(hosted, benchActive, benchActive), &cfg)[0]
	for round := 0; round < 8; round++ {
		benchBurst(lp, 4)
		lp.applyGVT(lp.localMin(), lp.window, nil)
	}
	return lp
}

// benchBurst executes n events on every active object.
func benchBurst(lp *lpRun, n int) {
	for i := 0; i < n*benchActive; i++ {
		lp.drainDeferred()
		if !lp.execStep() {
			panic("bench ring drained")
		}
	}
}

// BenchmarkLocalMin times an LP's GVT contribution with every active object
// holding an unsent lazy anti-message (and work to do, so nothing drains):
// the worst case for the lazy list, the common case for the old scan.
func BenchmarkLocalMin(b *testing.B) {
	for _, hosted := range benchHosted {
		b.Run(fmt.Sprintf("hosted=%d", hosted), func(b *testing.B) {
			lp := benchKernel(hosted)
			benchBurst(lp, 4)
			for _, o := range lp.objs[:benchActive] {
				injectStraggler(lp, o)
				if o.out.PendingLen() == 0 {
					b.Fatalf("object %d holds no lazy output", o.id)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = lp.localMin()
			}
		})
	}
}

// BenchmarkApplyGVT times one GVT application after every active object
// executed one event — so each has a processed event to commit and an output
// record to reclaim. Only applyGVT is on the clock; ns/op is overridden with
// that share, allocs/op covers the whole round.
func BenchmarkApplyGVT(b *testing.B) {
	for _, hosted := range benchHosted {
		b.Run(fmt.Sprintf("hosted=%d", hosted), func(b *testing.B) {
			lp := benchKernel(hosted)
			var spent time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchBurst(lp, 1)
				g := lp.localMin()
				t0 := time.Now()
				lp.applyGVT(g, lp.window, nil)
				spent += time.Since(t0)
			}
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/op")
			if lp.st.EventsCommitted < int64(b.N)*benchActive {
				b.Fatalf("committed %d events over %d rounds of %d", lp.st.EventsCommitted, b.N, benchActive)
			}
		})
	}
}

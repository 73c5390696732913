package statesave

import (
	"fmt"
	"testing"
	"time"

	"gowarp/internal/codec"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// Layer benchmarks of the encoded-checkpoint path on the 16 KiB padded
// state, delta encoding without compression (the smmp-facets configuration
// of the claims benchmark). Run with -benchmem: all of them are 0 allocs/op
// once warm.
//
// The plain restore and fossil benchmarks keep one queue, whose buffers never
// leave L1/L2; a run that hosts many objects comes back to a queue after
// touching megabytes of other state. The ...Cold variants round-robin
// coldQueues queues — about 6 MB of live state, images and spare buffers —
// so every measured call meets its buffers where a real run finds them.
const coldQueues = 64

type benchQueue struct {
	q    *Queue
	live tapeState
	// st is live as Save and RestoreInto take it: converted once here, not by
	// every measured call (an interface-to-interface conversion is a table
	// lookup a kernel holding a model.State never pays).
	st  model.State
	now vtime.Time
}

func newBenchQueues(n int) []benchQueue {
	qs := make([]benchQueue, n)
	for i := range qs {
		qs[i] = newBenchQueue(&padState{Pad: make([]byte, 16<<10)})
	}
	return qs
}

func newBenchQueue(live tapeState) benchQueue {
	return benchQueue{q: NewQueue(live, Snapshot{}, codec.NewState(codec.Config{Mode: codec.Delta})), live: live, st: live}
}

// save checkpoints n further steps of the live state.
func (b *benchQueue) save(n int) {
	for ; n > 0; n-- {
		b.now++
		b.live.step()
		b.q.Save(b.st, Snapshot{Time: b.now})
	}
}

// BenchmarkCodecQueueSave16k: one save in the kernel's rhythm — 64 delta
// saves, then the fossil collection that recycles them — of a state that hides
// what it dirtied: a marshal and a compare of the 16 KiB.
func BenchmarkCodecQueueSave16k(b *testing.B) {
	benchSave(b, &padState{Pad: make([]byte, 16<<10)})
}

// BenchmarkCodecQueueSaveDirty16k is the same save of a codec.DirtyState that
// reports 1 % of the encoding as dirty, the counter and 80 bytes of Pad on
// either side of the one written: no byte of the image is copied.
func BenchmarkCodecQueueSaveDirty16k(b *testing.B) {
	benchSave(b, &markState{padState: padState{Pad: make([]byte, 16<<10)}, slack: 80})
}

func benchSave(b *testing.B, live tapeState) {
	bq := newBenchQueue(live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		bq.save(1)
		if i%64 == 0 {
			bq.q.FossilCollect(bq.now)
		}
	}
}

// benchRestoreDepth is a rollback that pops depth snapshots — walking lastEnc
// back through their deltas — and decodes the restore point into the live
// state, then saves them again. restore-ns/op is the RestoreInto call alone;
// ns/op includes the saves it pops.
func benchRestoreDepth(b *testing.B, depth, queues int) {
	qs := newBenchQueues(queues)
	for i := range qs {
		qs[i].save(17)
	}
	var restore time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bq := &qs[i%queues]
		at := vtime.Time(18 - depth)
		t0 := time.Now()
		s := bq.q.RestoreInto(at, bq.st)
		restore += time.Since(t0)
		if s.Time != at-1 || s.State != bq.st {
			b.Fatalf("restored t=%v into %p", s.Time, s.State)
		}
		bq.now = at - 1
		bq.save(depth)
	}
	b.ReportMetric(float64(restore.Nanoseconds())/float64(b.N), "restore-ns/op")
}

// BenchmarkCodecQueueRestoreDepth pops 1, 4 and 16 snapshots: what a restore
// costs grows with what it undoes.
func BenchmarkCodecQueueRestoreDepth(b *testing.B) {
	for _, depth := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { benchRestoreDepth(b, depth, 1) })
	}
}

func BenchmarkCodecQueueRestoreDepthCold(b *testing.B) {
	for _, depth := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { benchRestoreDepth(b, depth, coldQueues) })
	}
}

// benchFossil is sixteen saves, then a collection that lands in the middle of
// the deltas: it retires what it drops and releases the new oldest snapshot's
// delta, and re-encodes nothing. fossil-ns/op is the FossilCollect call alone;
// with several queues it meets saves made that many iterations earlier.
func benchFossil(b *testing.B, queues int) {
	qs := newBenchQueues(queues)
	for i := range qs {
		qs[i].save(16)
		qs[i].q.FossilCollect(qs[i].now - 4)
		qs[i].save(16)
	}
	var fossil time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bq := &qs[i%queues]
		t0 := time.Now()
		n := bq.q.FossilCollect(bq.now - 4)
		fossil += time.Since(t0)
		if n != 16 {
			b.Fatalf("collected %d snapshots, want 16", n)
		}
		bq.save(16)
	}
	b.ReportMetric(float64(fossil.Nanoseconds())/float64(b.N), "fossil-ns/op")
}

func BenchmarkCodecQueueFossil(b *testing.B)     { benchFossil(b, 1) }
func BenchmarkCodecQueueFossilCold(b *testing.B) { benchFossil(b, coldQueues) }

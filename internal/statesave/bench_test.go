package statesave

import (
	"testing"
	"time"

	"gowarp/internal/codec"
	"gowarp/internal/vtime"
)

// Layer benchmarks of the encoded-checkpoint path on the 16 KiB padded
// state, delta encoding without compression (the smmp-facets configuration
// of the claims benchmark). Run with -benchmem: all three are 0 allocs/op
// once warm.

func newBenchQueue() (*Queue, *decodeInPlace) {
	live := &decodeInPlace{&padState{Pad: make([]byte, 16<<10)}, &padState{}}
	return NewQueue(live, Snapshot{}, codec.NewState(codec.Config{Mode: codec.Delta})), live
}

// BenchmarkCodecQueueSave16k: one save in the kernel's rhythm — 64 saves
// (60 deltas, 4 anchors), then the fossil collection that recycles them.
func BenchmarkCodecQueueSave16k(b *testing.B) {
	q, live := newBenchQueue()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		live.step()
		q.Save(live, Snapshot{Time: vtime.Time(i)})
		if i%64 == 0 {
			q.FossilCollect(vtime.Time(i))
		}
	}
}

// BenchmarkCodecQueueRestoreChain16: a rollback that pops one snapshot and
// reconstructs a restore point sixteen deltas after its full image, the
// longest walk FullEvery allows. restore-ns/op is the RestoreBefore call
// alone; ns/op includes the save it pops.
func BenchmarkCodecQueueRestoreChain16(b *testing.B) {
	q, live := newBenchQueue()
	for t := vtime.Time(1); t <= 16; t++ {
		live.step()
		q.Save(live, Snapshot{Time: t})
	}
	var restore time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live.step()
		q.Save(live, Snapshot{Time: 17})
		t0 := time.Now()
		s := q.RestoreBefore(17)
		restore += time.Since(t0)
		if s.Time != 16 {
			b.Fatalf("restored t=%v", s.Time)
		}
		// Roll the live state back too, as the kernel does.
		live.Pad[int(live.N)%len(live.Pad)]--
		live.N--
	}
	b.ReportMetric(float64(restore.Nanoseconds())/float64(b.N), "restore-ns/op")
}

// BenchmarkCodecQueueFossil: sixteen saves, then a collection that lands in
// the middle of the delta chain and has to re-anchor the new oldest snapshot.
// fossil-ns/op is the FossilCollect call alone.
func BenchmarkCodecQueueFossil(b *testing.B) {
	q, live := newBenchQueue()
	now := vtime.Time(0)
	var fossil time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 16; k++ {
			now++
			live.step()
			q.Save(live, Snapshot{Time: now})
		}
		t0 := time.Now()
		n := q.FossilCollect(now - 4)
		fossil += time.Since(t0)
		if n != 16 && i > 0 {
			b.Fatalf("collected %d snapshots, want 16", n)
		}
	}
	b.ReportMetric(float64(fossil.Nanoseconds())/float64(b.N), "fossil-ns/op")
}

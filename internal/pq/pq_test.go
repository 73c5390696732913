package pq

import (
	"math/rand"
	"sort"
	"testing"

	"gowarp/internal/event"
	"gowarp/internal/vtime"
)

func mkEvent(recv vtime.Time, sender event.ObjectID, id uint64) *event.Event {
	return &event.Event{
		RecvTime: recv,
		Receiver: 1,
		Sender:   sender,
		ID:       id,
		SendSeq:  uint32(id), // distinct, keeps the order total
	}
}

func kinds() []Kind { return []Kind{Heap, Splay, Calendar} }

func TestPendingSetBasic(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			s := New(k)
			if s.Len() != 0 || s.PeekMin() != nil || s.PopMin() != nil {
				t.Fatal("empty set misbehaves")
			}
			e1 := mkEvent(5, 0, 1)
			e2 := mkEvent(3, 0, 2)
			e3 := mkEvent(9, 0, 3)
			s.Push(e1)
			s.Push(e2)
			s.Push(e3)
			if s.Len() != 3 {
				t.Fatalf("Len = %d", s.Len())
			}
			if got := s.PeekMin(); got != e2 {
				t.Fatalf("PeekMin = %v", got)
			}
			if got := s.PopMin(); got != e2 {
				t.Fatalf("PopMin = %v", got)
			}
			if got := s.Remove(IdentityOf(e3)); got != e3 {
				t.Fatalf("Remove = %v", got)
			}
			if got := s.Remove(IdentityOf(e3)); got != nil {
				t.Fatalf("second Remove = %v, want nil", got)
			}
			if got := s.PopMin(); got != e1 {
				t.Fatalf("final PopMin = %v", got)
			}
			if s.Len() != 0 {
				t.Fatalf("Len = %d after drain", s.Len())
			}
		})
	}
}

// TestPendingSetAgainstReference drives both implementations with a random
// operation mix and cross-checks every result against a sorted-slice oracle.
func TestPendingSetAgainstReference(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			s := New(k)
			var oracle []*event.Event
			nextID := uint64(0)

			oracleMin := func() *event.Event {
				if len(oracle) == 0 {
					return nil
				}
				min := oracle[0]
				for _, e := range oracle[1:] {
					if event.Less(e, min) {
						min = e
					}
				}
				return min
			}
			oracleRemove := func(id Identity) *event.Event {
				for i, e := range oracle {
					if IdentityOf(e) == id {
						oracle = append(oracle[:i], oracle[i+1:]...)
						return e
					}
				}
				return nil
			}

			for step := 0; step < 5000; step++ {
				switch op := r.Intn(10); {
				case op < 5: // push
					e := mkEvent(vtime.Time(r.Intn(100)), event.ObjectID(r.Intn(4)), nextID)
					nextID++
					s.Push(e)
					oracle = append(oracle, e)
				case op < 8: // pop min
					want := oracleMin()
					got := s.PopMin()
					if want == nil {
						if got != nil {
							t.Fatalf("step %d: PopMin = %v, want nil", step, got)
						}
						continue
					}
					// Equal-key events may pop in any order; compare keys.
					if got == nil || event.Compare(got, want) != 0 {
						t.Fatalf("step %d: PopMin = %v, want key of %v", step, got, want)
					}
					oracleRemove(IdentityOf(got))
				case op < 9: // peek
					want := oracleMin()
					got := s.PeekMin()
					if (want == nil) != (got == nil) {
						t.Fatalf("step %d: PeekMin presence mismatch", step)
					}
					if want != nil && event.Compare(got, want) != 0 {
						t.Fatalf("step %d: PeekMin = %v, want key of %v", step, got, want)
					}
				default: // remove by identity (may miss)
					var id Identity
					if len(oracle) > 0 && r.Intn(2) == 0 {
						id = IdentityOf(oracle[r.Intn(len(oracle))])
					} else {
						id = Identity{Sender: 9, ID: uint64(r.Intn(1000))}
					}
					want := oracleRemove(id)
					got := s.Remove(id)
					if (want == nil) != (got == nil) {
						t.Fatalf("step %d: Remove(%v) presence mismatch", step, id)
					}
					if want != nil && got != want {
						t.Fatalf("step %d: Remove returned wrong event", step)
					}
				}
				if s.Len() != len(oracle) {
					t.Fatalf("step %d: Len = %d, oracle %d", step, s.Len(), len(oracle))
				}
			}
		})
	}
}

func TestPendingSetDrainSorted(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			s := New(k)
			var all []*event.Event
			for i := 0; i < 1000; i++ {
				e := mkEvent(vtime.Time(r.Intn(200)), event.ObjectID(r.Intn(3)), uint64(i))
				all = append(all, e)
				s.Push(e)
			}
			sort.Slice(all, func(i, j int) bool { return event.Less(all[i], all[j]) })
			for i, want := range all {
				got := s.PopMin()
				if got == nil || event.Compare(got, want) != 0 {
					t.Fatalf("drain position %d: got %v, want %v", i, got, want)
				}
			}
		})
	}
}

func TestKindString(t *testing.T) {
	if Heap.String() != "heap" || Splay.String() != "splay" || Calendar.String() != "calendar" {
		t.Error("kind names broken")
	}
}

func BenchmarkPendingSetPushPop(b *testing.B) {
	for _, k := range kinds() {
		b.Run(k.String(), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			s := New(k)
			// Steady-state hold-model: queue of 256, push+pop per step.
			for i := 0; i < 256; i++ {
				s.Push(mkEvent(vtime.Time(r.Intn(1<<20)), 0, uint64(i)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := s.PopMin()
				s.Push(mkEvent(e.RecvTime+vtime.Time(r.Intn(1000)), 0, uint64(256+i)))
			}
		})
	}
}

package stats

import (
	"sync"
	"testing"
)

func TestLoadBoardPublishTake(t *testing.T) {
	var b LoadBoard
	if edges := b.Take(); len(edges) != 0 {
		t.Fatalf("an empty board gave %v", edges)
	}
	b.Publish(map[uint64]int64{EdgeKey(0, 1): 7})
	b.Publish(map[uint64]int64{EdgeKey(1, 0): 3, EdgeKey(2, 3): 4})

	// EdgeKey(0,1) and EdgeKey(1,0) must land on the same cell.
	edges := b.Take()
	if len(edges) != 2 {
		t.Fatalf("Take = %v, want 2 entries", edges)
	}
	if edges[0].A != 0 || edges[0].B != 1 || edges[0].W != 10 {
		t.Errorf("edge[0] = %+v, want {0 1 10}", edges[0])
	}
	if edges[1].A != 2 || edges[1].B != 3 || edges[1].W != 4 {
		t.Errorf("edge[1] = %+v, want {2 3 4}", edges[1])
	}

	// A take empties the board: the next one sees only what came after.
	b.Publish(map[uint64]int64{EdgeKey(0, 1): 2})
	if edges := b.Take(); len(edges) != 1 || edges[0].W != 2 {
		t.Errorf("second Take = %v, want one edge of weight 2", edges)
	}
}

// TestLoadBoardConcurrentPublish pins the race-freedom contract and the
// take's: every LP publishes while the balancer takes, and every published
// count lands in exactly one take.
func TestLoadBoardConcurrentPublish(t *testing.T) {
	const lps, rounds = 4, 200
	var b LoadBoard
	var wg sync.WaitGroup
	for lp := 0; lp < lps; lp++ {
		wg.Add(1)
		go func(lp int) {
			defer wg.Done()
			edges := make(map[uint64]int64)
			for r := 0; r < rounds; r++ {
				edges[EdgeKey(int32(lp), int32((lp+1)%lps))] = 1
				edges[EdgeKey(int32(lp), int32(lp+lps))] = 2
				b.Publish(edges)
				clear(edges)
			}
		}(lp)
	}
	taken := make(map[[2]int]float64)
	take := func() {
		for _, e := range b.Take() {
			taken[[2]int{e.A, e.B}] += e.W
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			take()
		}
	}()
	wg.Wait()
	<-done
	take()
	for lp := 0; lp < lps; lp++ {
		a, c := lp, (lp+1)%lps
		if a > c {
			a, c = c, a
		}
		if got := taken[[2]int{a, c}]; got != rounds {
			t.Errorf("pair %d-%d: %v taken, want %d", a, c, got, rounds)
		}
		if got := taken[[2]int{lp, lp + lps}]; got != 2*rounds {
			t.Errorf("pair %d-%d: %v taken, want %d", lp, lp+lps, got, 2*rounds)
		}
	}
}

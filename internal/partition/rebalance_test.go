package partition

import (
	"slices"
	"testing"
)

// TestRebalanceReadsMeasurements: an undirected pair measured in both
// directions accumulates, an edge naming an object out of range is dropped,
// and an object with no measured executions still weighs something, so it can
// move.
func TestRebalanceReadsMeasurements(t *testing.T) {
	// Object 0 has 4 toward LP1's object 3, object 2 has 3 + 2: only the sum
	// of both directions makes 2 win the tie on load over the lower index.
	part := []int{0, 0, 0, 1}
	edges := []MeasuredEdge{{A: 0, B: 3, W: 4}, {A: 2, B: 3, W: 3}, {A: 3, B: 2, W: 2}, {A: 0, B: 9, W: 7}}
	moves := Rebalance(part, []float64{3, 0, 3, 1}, edges, 2, 1)
	if len(moves) != 1 || moves[0] != (Move{Object: 2, From: 0, To: 1}) {
		t.Errorf("moves = %v, want [{2 0 1}]", moves)
	}

	// Object 0 is too heavy to move; the unmeasured object 1 is not.
	moves = Rebalance([]int{0, 0, 1}, []float64{5, 0, 1}, nil, 2, 1)
	if len(moves) != 1 || moves[0] != (Move{Object: 1, From: 0, To: 1}) {
		t.Errorf("moves = %v, want [{1 0 1}]", moves)
	}
}

func TestRebalanceMovesHotObjectToLightLP(t *testing.T) {
	// LP0 hosts three objects (loads 10, 8, 1), LP1 one light object.
	part := []int{0, 0, 0, 1}
	moves := Rebalance(part, []float64{10, 8, 1, 1}, []MeasuredEdge{{A: 1, B: 3, W: 5}}, 2, 1)
	if len(moves) != 1 {
		t.Fatalf("moves = %v, want exactly one", moves)
	}
	// Object 1 has affinity toward LP1 (edge to object 3) and satisfies the
	// strict-decrease test; it must win over the heavier but unconnected 0.
	if moves[0] != (Move{Object: 1, From: 0, To: 1}) {
		t.Errorf("move = %+v, want {1 0 1}", moves[0])
	}
	if !slices.Equal(part, []int{0, 1, 0, 1}) {
		t.Errorf("partition after the move = %v, want [0 1 0 1]", part)
	}
}

func TestRebalanceNeverEmptiesAnLP(t *testing.T) {
	part := []int{0, 1}
	if moves := Rebalance(part, []float64{10, 1}, nil, 2, 4); len(moves) != 0 {
		t.Errorf("moves = %v, want none (source would be emptied)", moves)
	}
}

func TestRebalanceStopsWhenNoStrictImprovement(t *testing.T) {
	// Moving either object from LP0 makes LP1 at least as heavy as LP0 was.
	part := []int{0, 0, 1}
	if moves := Rebalance(part, []float64{5, 5, 9}, nil, 2, 4); len(moves) != 0 {
		t.Errorf("moves = %v, want none", moves)
	}
}

// TestRebalanceImbalanceMonotone is the controller-correctness property from
// the issue: on a skewed synthetic workload, applying the transfer function
// step by step never increases LoadImbalance and strictly improves it overall.
func TestRebalanceImbalanceMonotone(t *testing.T) {
	const n, lps = 16, 4
	load := make([]float64, n)
	var edges []MeasuredEdge
	g := NewGraph(n)
	for i := range load {
		load[i] = float64(1 + (i*7)%13)
		g.SetVertexWeight(i, load[i])
		edges = append(edges, MeasuredEdge{A: i, B: (i + 1) % n, W: float64(1 + i%3)})
	}
	// Heavily skewed start: everything on LP0 except one object per other LP.
	part := make([]int, n)
	for p := 1; p < lps; p++ {
		part[n-p] = p
	}

	prev := g.LoadImbalance(part, lps)
	start := prev
	steps := 0
	for {
		before := slices.Clone(part)
		moves := Rebalance(part, load, edges, lps, 1)
		if len(moves) == 0 {
			break
		}
		for _, m := range moves {
			if before[m.Object] != m.From || part[m.Object] != m.To {
				t.Fatalf("move %+v disagrees with partition %v -> %v", m, before, part)
			}
		}
		cur := g.LoadImbalance(part, lps)
		if cur > prev+1e-12 {
			t.Fatalf("step %d increased imbalance: %v -> %v", steps, prev, cur)
		}
		prev = cur
		steps++
		if steps > n*lps {
			t.Fatalf("controller failed to converge after %d steps", steps)
		}
	}
	if steps == 0 {
		t.Fatal("controller proposed no moves on a skewed workload")
	}
	if prev >= start {
		t.Errorf("imbalance did not improve: start %v, end %v", start, prev)
	}
	if err := Validate(part, n); err != nil {
		t.Errorf("final partition invalid: %v", err)
	}
}

func TestRebalanceRespectsMaxMoves(t *testing.T) {
	const n = 12
	load := make([]float64, n)
	for i := range load {
		load[i] = 1
	}
	part := make([]int, n) // all on LP0
	part[n-1] = 1
	moves := Rebalance(part, load, nil, 2, 3)
	if len(moves) != 3 {
		t.Errorf("len(moves) = %d, want 3", len(moves))
	}
}

package partition

// This file is the transfer function of the load-balancing controller: given
// *measured* run statistics (rather than the model's static estimates), pick
// the object moves that shrink load imbalance. The policy follows the paper's
// framing of partitioning as a controlled facet — the observation is the
// per-LP committed-event share, the actuation is "migrate the hottest boundary
// object from the most- to the least-loaded LP", and the strict-decrease
// admission test below makes the imbalance metric monotonically
// non-increasing over controller steps. It reads the measurements as they
// come and builds no Graph: a controller firing allocates nothing per object.

// MeasuredEdge is one observed communication pair: W events flowed between
// objects A and B during the measurement window (direction ignored).
type MeasuredEdge struct {
	A, B int
	W    float64
}

// unmeasured is the weight of an object with no observed executions: moving
// it is possible but never preferred over measured work.
const unmeasured = 1e-6

// Move is one rebalancing decision: migrate Object from LP From to LP To.
type Move struct {
	Object, From, To int
}

// Rebalance proposes up to maxMoves migrations that each strictly reduce the
// load gap between the heaviest and lightest LP, given each object's measured
// load (event executions) and the measured communication edges. Each step
// moves one object from the most-loaded to the least-loaded LP, admitted only
// when
//
//	load[to] + w(object) < load[from]
//
// — the destination stays strictly below the source's former load and the
// source strictly decreases, so the max LP load (and with it
// Graph.LoadImbalance, whose denominator is invariant) never increases. A
// source LP is never emptied. Among admissible objects the choice is
// deterministic: prefer objects with communication affinity toward the
// destination (moving them also shrinks the cut), then higher measured load,
// then lower index. part is applied to in place; the moves come back in
// application order, and an empty slice means the partition is already within
// what single moves can improve.
func Rebalance(part []int, load []float64, edges []MeasuredEdge, lps, maxMoves int) []Move {
	if lps < 2 || maxMoves <= 0 || len(load) != len(part) {
		return nil
	}
	weight := func(v int) float64 { return max(load[v], unmeasured) }
	loads := make([]float64, lps)
	counts := make([]int, lps)
	for v, p := range part {
		if p < 0 || p >= lps {
			return nil
		}
		loads[p] += weight(v)
		counts[p]++
	}

	var moves []Move
	for len(moves) < maxMoves {
		from, to := 0, 0
		for p := 1; p < lps; p++ {
			if loads[p] > loads[from] {
				from = p
			}
			if loads[p] < loads[to] {
				to = p
			}
		}
		if from == to || counts[from] <= 1 {
			break
		}
		aff := make(map[int]float64)
		for _, e := range edges {
			if e.A < 0 || e.A >= len(part) || e.B < 0 || e.B >= len(part) || e.A == e.B || e.W <= 0 {
				continue
			}
			if part[e.A] == from && part[e.B] == to {
				aff[e.A] += e.W
			} else if part[e.B] == from && part[e.A] == to {
				aff[e.B] += e.W
			}
		}

		best := -1
		var bestAff, bestW float64
		for v, p := range part {
			if p != from {
				continue
			}
			w := weight(v)
			if loads[to]+w >= loads[from] {
				continue
			}
			if best == -1 || aff[v] > bestAff || (aff[v] == bestAff && w > bestW) {
				best, bestAff, bestW = v, aff[v], w
			}
		}
		if best == -1 {
			break
		}
		moves = append(moves, Move{Object: best, From: from, To: to})
		part[best] = to
		loads[from] -= bestW
		loads[to] += bestW
		counts[from]--
		counts[to]++
	}
	return moves
}

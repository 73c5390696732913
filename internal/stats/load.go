package stats

import (
	"sort"
	"sync"

	"gowarp/internal/partition"
)

// LoadBoard is where the LPs leave the object-pair message counts the load
// balancer reads: each LP publishes what it counted since its last GVT
// application (never on the event hot path), and the balancer takes
// everything published since its last decision. It holds nothing sized to
// the model; the zero value is ready to use, and it is safe for concurrent
// use.
type LoadBoard struct {
	mu    sync.Mutex
	edges map[uint64]int64 // EdgeKey(a,b) → events exchanged since the last take
}

// EdgeKey packs an unordered object pair into one map key. Publishers and the
// board agree on this scheme so per-LP recorders can accumulate locally and
// merge in one pass.
func EdgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// Publish adds edges, EdgeKey to events exchanged, to the board.
func (b *LoadBoard) Publish(edges map[uint64]int64) {
	if len(edges) == 0 {
		return
	}
	b.mu.Lock()
	if b.edges == nil {
		b.edges = make(map[uint64]int64, len(edges))
	}
	for k, n := range edges {
		b.edges[k] += n
	}
	b.mu.Unlock()
}

// Take empties the board and returns what it held as measured edges, sorted by
// key so downstream consumers are deterministic: every published count lands
// in exactly one take.
func (b *LoadBoard) Take() []partition.MeasuredEdge {
	b.mu.Lock()
	edges := b.edges
	b.edges = nil
	b.mu.Unlock()
	keys := make([]uint64, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]partition.MeasuredEdge, len(keys))
	for i, k := range keys {
		out[i] = partition.MeasuredEdge{A: int(int32(k >> 32)), B: int(int32(uint32(k))), W: float64(edges[k])}
	}
	return out
}

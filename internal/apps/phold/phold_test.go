package phold

import (
	"reflect"
	"testing"

	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Objects < 1 || c.TokensPerObject < 1 || c.MeanDelay <= 0 {
		t.Error("defaults incomplete")
	}
	c2 := Config{Objects: 4, LPs: 16}.withDefaults()
	if c2.LPs != 4 {
		t.Errorf("LPs clamp: %d", c2.LPs)
	}
}

func TestModelStructure(t *testing.T) {
	m := New(Config{Objects: 12, LPs: 3})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Objects) != 12 || m.NumLPs() != 3 {
		t.Errorf("objects=%d lps=%d", len(m.Objects), m.NumLPs())
	}
}

// TestTokenConservation: PHOLD's population is closed — every received
// token is forwarded, so total receives == total forwarded sends and the
// live population stays Objects×TokensPerObject.
func TestTokenConservation(t *testing.T) {
	cfg := Config{Objects: 8, TokensPerObject: 2, MeanDelay: 10, LPs: 2, Seed: 3}
	m := New(cfg)
	res, err := core.RunSequential(m, 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var received int64
	for _, st := range res.FinalStates {
		received += st.(*state).Received
	}
	if received != res.EventsExecuted {
		t.Errorf("received %d, executed %d", received, res.EventsExecuted)
	}
	if received == 0 {
		t.Error("no tokens moved")
	}
}

func TestLocalityRouting(t *testing.T) {
	// Locality 1: every hop stays on the sender's LP; the model then
	// partitions into independent per-LP submodels with no inter-LP
	// traffic, which the kernel runs without any rollbacks.
	m := New(Config{Objects: 8, TokensPerObject: 2, MeanDelay: 10, LPs: 4, Locality: 1, Seed: 4})
	cfg := core.DefaultConfig(20_000)
	res, err := core.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventMsgsSent != 0 {
		t.Errorf("locality 1 produced %d inter-LP messages", res.Stats.EventMsgsSent)
	}
	if res.Stats.Rollbacks != 0 {
		t.Errorf("locality 1 produced %d rollbacks", res.Stats.Rollbacks)
	}
}

func TestStatePaddingTouched(t *testing.T) {
	m := New(Config{Objects: 2, TokensPerObject: 1, MeanDelay: 5, LPs: 1, Seed: 6, StatePadding: 64})
	res, err := core.RunSequential(m, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	touched := false
	for _, st := range res.FinalStates {
		for _, b := range st.(*state).Pad {
			if b != 0 {
				touched = true
			}
		}
	}
	if !touched {
		t.Error("padding is dead weight; the model should touch it")
	}
}

// TestSparseStructure: the sparse variant's partition and LP blocks must
// coincide with the dense block partition, and destinations must stay in
// range for every (Objects, LPs) shape.
func TestSparseStructure(t *testing.T) {
	for _, shape := range []struct{ n, lps int }{{12, 3}, {13, 4}, {7, 7}, {100, 8}, {5, 1}} {
		dense := New(Config{Objects: shape.n, LPs: shape.lps})
		sparse := New(Config{Objects: shape.n, LPs: shape.lps, Sparse: true})
		if err := sparse.Validate(); err != nil {
			t.Fatalf("%d/%d: %v", shape.n, shape.lps, err)
		}
		for i := range dense.Partition {
			if dense.Partition[i] != sparse.Partition[i] {
				t.Fatalf("%d/%d: partition diverges at %d", shape.n, shape.lps, i)
			}
		}
		for i, obj := range sparse.Objects {
			o := obj.(*sparseObject)
			if int(o.lpLo) > i || i >= int(o.lpHi) {
				t.Fatalf("%d/%d: object %d outside its block [%d,%d)", shape.n, shape.lps, i, o.lpLo, o.lpHi)
			}
			for j := int(o.lpLo); j < int(o.lpHi); j++ {
				if sparse.Partition[j] != sparse.Partition[i] {
					t.Fatalf("%d/%d: block [%d,%d) of %d spans LPs", shape.n, shape.lps, o.lpLo, o.lpHi, i)
				}
			}
			if o.lpLo > 0 && sparse.Partition[o.lpLo-1] == sparse.Partition[i] {
				t.Fatalf("%d/%d: block of %d starts late", shape.n, shape.lps, i)
			}
		}
	}
}

// TestSparseConservation: the sparse variant keeps PHOLD's closed population.
func TestSparseConservation(t *testing.T) {
	m := New(Config{Objects: 64, TokensPerObject: 2, MeanDelay: 10, LPs: 8, Seed: 3, Sparse: true, HotSpot: 0.3})
	res, err := core.RunSequential(m, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var received int64
	for _, st := range res.FinalStates {
		received += st.(*state).Received
	}
	if received != res.EventsExecuted {
		t.Errorf("received %d, executed %d", received, res.EventsExecuted)
	}
	// The hot spot must actually skew the load toward object 0.
	hot := res.FinalStates[0].(*state).Received
	if float64(hot) < 3*float64(received)/64 {
		t.Errorf("hot spot cold: object 0 received %d of %d", hot, received)
	}
}

// TestSparseParallelMatch: a sparse hot-spot model commits the same
// computation on the parallel kernel as on the sequential reference.
func TestSparseParallelMatch(t *testing.T) {
	build := func() *model.Model {
		return New(Config{Objects: 32, TokensPerObject: 2, MeanDelay: 10,
			Locality: 0.5, LPs: 4, Seed: 9, Sparse: true, HotSpot: 0.2})
	}
	seq, err := core.RunSequential(build(), 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(2000)
	cfg.Optimism.Window = 200
	res, err := core.Run(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("committed %d, sequential %d", res.Stats.EventsCommitted, seq.EventsExecuted)
	}
	if !reflect.DeepEqual(res.FinalStates, seq.FinalStates) {
		t.Error("final states diverge")
	}
}

func TestStateBytes(t *testing.T) {
	s := &state{Pad: make([]byte, 100)}
	if s.StateBytes() <= 100 {
		t.Error("StateBytes must include the fixed fields")
	}
}

var _ = vtime.Zero

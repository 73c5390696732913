package qnet

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

func testCfg() Config {
	return Config{Stations: 16, Jobs: 32, ServiceMean: 20, TransitDelay: 5, Locality: 0.3, LPs: 4, Seed: 3}
}

func TestMatchesSequential(t *testing.T) {
	m := New(testCfg())
	end := vtime.Time(10_000)
	seq, err := core.RunSequential(m, end, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(end)
	cfg.GVTPeriod = 300 * time.Microsecond
	cfg.Optimism.Window = 300
	par, err := core.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.EventsCommitted != seq.EventsExecuted {
		t.Errorf("committed %d vs %d", par.Stats.EventsCommitted, seq.EventsExecuted)
	}
	for i := range seq.FinalStates {
		if !reflect.DeepEqual(par.FinalStates[i], seq.FinalStates[i]) {
			t.Errorf("station %d states differ", i)
			break
		}
	}
}

// TestJobConservation: in a closed network the population is constant, so
// total arrivals equals total departures (every arrival forwards exactly
// once) and every job remains in flight at the end.
func TestJobConservation(t *testing.T) {
	m := New(testCfg())
	res, err := core.RunSequential(m, 20_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals int64
	for _, st := range res.FinalStates {
		arrivals += st.(*stationState).Arrivals
	}
	if arrivals != res.EventsExecuted {
		t.Errorf("arrivals %d != executed %d", arrivals, res.EventsExecuted)
	}
	if arrivals == 0 {
		t.Fatal("network idle")
	}
}

// TestFCFSNonDecreasingDepartures: the busy-until clock must never move
// backwards within a committed timeline, and waiting must be non-negative.
func TestFCFSAccounting(t *testing.T) {
	m := New(testCfg())
	res, err := core.RunSequential(m, 20_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.FinalStates {
		s := st.(*stationState)
		if s.WaitSum < 0 || s.Busy < 0 {
			t.Errorf("station %d negative accounting: wait=%d busy=%d", i, s.WaitSum, s.Busy)
		}
		if s.Arrivals > 0 && s.Busy == 0 {
			t.Errorf("station %d served %d jobs with zero busy time", i, s.Arrivals)
		}
	}
}

// TestAggressiveFavored: FCFS waiting is order-sensitive, so straggler
// re-execution regenerates different departures — the hit ratio should be
// low and the dynamic selector should lean aggressive (the opposite of the
// SMMP model).
func TestAggressiveFavored(t *testing.T) {
	cfg := core.DefaultConfig(30_000)
	cfg.GVTPeriod = 300 * time.Microsecond
	cfg.Optimism.Window = 400
	cfg.Cancellation = cancel.Config{Mode: cancel.Dynamic, FilterDepth: 16, Period: 4}
	c := testCfg()
	c.Locality = 0.1 // heavy cross-LP traffic
	res, err := core.Run(New(c), cfg)
	if err != nil {
		t.Fatal(err)
	}
	comparisons := res.Stats.LazyHits + res.Stats.LazyMisses
	if res.Stats.Rollbacks < 10 || comparisons < 20 {
		t.Skipf("too little rollback activity to judge (rollbacks=%d comparisons=%d)",
			res.Stats.Rollbacks, comparisons)
	}
	if hr := res.Stats.HitRatio(); hr > 0.6 {
		t.Errorf("hit ratio %.2f; expected order-sensitive FCFS to miss mostly", hr)
	}
	var lazy, aggr int
	for _, po := range res.PerObject {
		if po.Rollbacks == 0 {
			continue
		}
		if po.FinalStrategy == "lazy" {
			lazy++
		} else {
			aggr++
		}
	}
	t.Logf("rollbacks=%d HR=%.3f lazy=%d aggressive=%d",
		res.Stats.Rollbacks, res.Stats.HitRatio(), lazy, aggr)
	if lazy > aggr {
		t.Errorf("more stations settled lazy (%d) than aggressive (%d)", lazy, aggr)
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Stations < 1 || c.Jobs < 1 || c.TransitDelay < 1 {
		t.Error("defaults incomplete")
	}
	if err := New(Config{}).Validate(); err != nil {
		t.Error(err)
	}
}

// TestStateRoundTrip exercises the codec.DeltaState contract: the encoding
// is deterministic (re-encoding an unmarshaled state reproduces the bytes),
// the round trip preserves every field, and the decoded state shares no
// storage with the encoding.
func TestStateRoundTrip(t *testing.T) {
	var _ codec.DeltaState = (*stationState)(nil)
	states := []*stationState{
		{Rng: model.NewRand(7)},
		{Rng: model.NewRand(99), BusyUntil: 1234, Arrivals: 17, Busy: 420, WaitSum: -3, Pad: []byte{1, 2, 3, 4}},
	}
	// Burn some RNG draws so the stream position is part of the state.
	states[1].Rng.Float64()
	states[1].Rng.Intn(10)
	for i, s := range states {
		enc := s.MarshalState(nil)
		got, err := new(stationState).UnmarshalState(enc)
		if err != nil {
			t.Fatalf("state %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("state %d: round trip mismatch: got %+v want %+v", i, got, s)
		}
		re := got.(*stationState).MarshalState(nil)
		if !bytes.Equal(re, enc) {
			t.Errorf("state %d: re-encoding differs (non-deterministic layout)", i)
		}
		// The decoded Pad must be a copy, not an alias of the encoding.
		if p := got.(*stationState).Pad; len(p) > 0 {
			p[0] ^= 0xFF
			if !bytes.Equal(s.MarshalState(nil), enc) {
				t.Errorf("state %d: mutating decoded Pad changed the source state", i)
			}
		}
	}
	// Truncated input must error, not panic.
	enc := states[1].MarshalState(nil)
	if _, err := new(stationState).UnmarshalState(enc[:len(enc)-2]); err == nil {
		t.Error("truncated encoding decoded without error")
	}
}

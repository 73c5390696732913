package core_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"gowarp/internal/audit"
	"gowarp/internal/cancel"
	"gowarp/internal/core"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// This file holds an order-determinism regression harness: a PHOLD-like
// model that logs every receive into its state so
// the first divergent delivery between kernels can be pinpointed.
type recState struct {
	Rng model.Rand
	Log []recEntry
}

type recEntry struct {
	From event.ObjectID
	At   vtime.Time
	Hops uint64
}

func (s *recState) Clone() model.State {
	c := &recState{Rng: s.Rng, Log: append([]recEntry(nil), s.Log...)}
	return c
}

type recObject struct {
	name    string
	self    int
	objects int
	tokens  int
	seed    uint64
}

func (o *recObject) Name() string { return o.name }

func (o *recObject) InitialState() model.State {
	return &recState{Rng: model.NewRand(o.seed ^ (uint64(o.self)+1)*0x9E3779B97F4A7C15)}
}

func (o *recObject) Init(ctx model.Context, st model.State) {
	s := st.(*recState)
	for i := 0; i < o.tokens; i++ {
		o.launch(ctx, s, 0)
	}
}

func (o *recObject) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*recState)
	hops := binary.LittleEndian.Uint64(ev.Payload)
	s.Log = append(s.Log, recEntry{From: ev.Sender, At: ev.RecvTime, Hops: hops})
	o.launch(ctx, s, hops+1)
}

func (o *recObject) launch(ctx model.Context, s *recState, hops uint64) {
	dest := event.ObjectID(s.Rng.Intn(o.objects))
	delay := vtime.Time(s.Rng.Exp(10))
	p := make([]byte, 8)
	binary.LittleEndian.PutUint64(p, hops)
	ctx.Send(dest, delay, 0, p)
}

func recording(objects, lps, tokens int, seed uint64) *model.Model {
	m := &model.Model{Name: "rec", Partition: make([]int, objects)}
	for i := 0; i < objects; i++ {
		m.Partition[i] = i * lps / objects
		m.Objects = append(m.Objects, &recObject{
			name: fmt.Sprintf("rec.%d", i), self: i, objects: objects, tokens: tokens, seed: seed,
		})
	}
	return m
}

// TestLazyDeliveryOrderDeterminism regression-tests the total event order
// under lazy cancellation: a lazy hit must only let an original message stand
// when its ordering key (send time, send sequence) also matches, or
// same-timestamp deliveries can swap relative to the sequential kernel.
func TestLazyDeliveryOrderDeterminism(t *testing.T) {
	m := recording(16, 4, 3, 7)
	cfg := core.DefaultConfig(1500)
	cfg.GVTPeriod = 200 * time.Microsecond
	cfg.Optimism.Window = 100
	cfg.Cancellation = cancel.Config{Mode: cancel.StaticLazy}

	seq, err := core.RunSequential(m, cfg.EndTime, 0)
	if err != nil {
		t.Fatal(err)
	}
	au := audit.New()
	cfg.Audit = au
	par, err := core.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := au.Err(); err != nil {
		t.Errorf("runtime audit: %v", err)
	}
	for i := range seq.FinalStates {
		sl := seq.FinalStates[i].(*recState).Log
		pl := par.FinalStates[i].(*recState).Log
		n := len(sl)
		if len(pl) < n {
			n = len(pl)
		}
		for j := 0; j < n; j++ {
			if sl[j] != pl[j] {
				t.Errorf("object %d entry %d: parallel %+v sequential %+v (context par=%+v seq=%+v)",
					i, j, pl[j], sl[j],
					pl[maxInt(0, j-2):minInt(len(pl), j+3)],
					sl[maxInt(0, j-2):minInt(len(sl), j+3)])
				break
			}
		}
		if len(sl) != len(pl) {
			t.Errorf("object %d: log lengths differ: parallel %d sequential %d", i, len(pl), len(sl))
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

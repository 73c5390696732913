package core

import (
	"strings"
	"testing"

	"gowarp/internal/audit"
	"gowarp/internal/codec"
	"gowarp/internal/event"
	"gowarp/internal/model"
	"gowarp/internal/statesave"
	"gowarp/internal/vtime"
)

// tallyState counts what its object executed, twice: Seen at the front of its
// encoding, Sum behind it. It is a codec.DirtyState by construction — Execute
// writes both fields, so both are what may have changed — unless forget is set:
// then it leaves Sum out of what it reports, the under-report a model author can
// commit.
type tallyState struct {
	Seen, Sum int64
	forget    bool
}

func (s *tallyState) Clone() model.State { c := *s; return &c }

func (s *tallyState) MarshalState(buf []byte) []byte {
	return codec.AppendInt64(codec.AppendInt64(buf, s.Seen), s.Sum)
}

func (s *tallyState) UnmarshalState(data []byte) (model.State, error) {
	r := codec.NewReader(data)
	s.Seen, s.Sum = r.Int64(), r.Int64()
	return s, r.Err()
}

func (s *tallyState) MarshalDirty(data []byte, at []codec.Region) ([]byte, []codec.Region, bool) {
	if s.forget {
		return codec.HeadRegion(codec.AppendInt64(data, s.Seen), len(data), at)
	}
	return codec.HeadRegion(s.MarshalState(data), len(data), at)
}

// tallyObject is pingObject with a tallyState.
type tallyObject struct {
	pingObject
	forget bool
}

func (o *tallyObject) InitialState() model.State { return &tallyState{forget: o.forget} }

func (o *tallyObject) Execute(ctx model.Context, st model.State, ev *event.Event) {
	s := st.(*tallyState)
	s.Seen++
	s.Sum += int64(ev.RecvTime)
	o.pingObject.Execute(ctx, st, ev)
}

// TestAuditCatchesUnderReportedDirt: what a codec.DirtyState leaves out of its
// report never reaches a checkpoint, so the state a rollback restores is one
// that never was — and the auditor, which stamped the true state's structural
// hash on the snapshot, says so at the restore. The honest twin of the same
// state passes the same rounds clean.
func TestAuditCatchesUnderReportedDirt(t *testing.T) {
	for _, forget := range []bool{false, true} {
		cfg := DefaultConfig(vtime.Time(1) << 40)
		cfg.Checkpoint = statesave.Config{Mode: statesave.Periodic, Interval: 2}
		cfg.Codec = codec.Config{Mode: codec.Delta}
		cfg.Audit = audit.New()
		m := &model.Model{Name: "tally", Partition: make([]int, 4)}
		for i := range m.Partition {
			m.Objects = append(m.Objects, &tallyObject{forget: forget, pingObject: pingObject{
				name: "tally", peer: event.ObjectID((i + 1) % 4), seeded: true, payload: make([]byte, 8)}})
		}
		lp := newTestKernel(m, &cfg)[0]
		if lp.objs[0].stateQ.Codec() == nil {
			t.Fatal("codec path not engaged")
		}
		for round := 0; round < 4; round++ {
			for i := 0; i < 40; i++ {
				lp.drainDeferred()
				lp.execStep()
			}
			injectStraggler(lp, lp.objs[round])
			lp.applyGVT(lp.localMin(), lp.window, nil)
		}
		if lp.st.Rollbacks == 0 || lp.st.DeltaCheckpoints == 0 {
			t.Fatalf("%d rollbacks over %d delta checkpoints: the rounds did not do what they test", lp.st.Rollbacks, lp.st.DeltaCheckpoints)
		}
		err := cfg.Audit.Err()
		switch {
		case !forget && err != nil:
			t.Errorf("a state that reports everything it writes: %v", err)
		case forget && (err == nil || !strings.Contains(err.Error(), audit.InvSnapshotHash)):
			t.Errorf("a state that leaves a written field out of its report: want a %s violation, got %v", audit.InvSnapshotHash, err)
		}
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/model"
	"gowarp/internal/stats"
)

// TestGatherReportsFlushesBacklog: rank 0's workers never block in a socket
// write, so when LP 0 stops, what the sockets have refused — here 16 MiB, far
// more than loopback's buffers hold, with the stop broadcast behind it — sits
// in rank 0's out-buffer, and the workers that would have flushed it next
// round are gone. gatherReports has to keep writing while it waits, or the
// peer never sees the stop, never reports, and rank 0 waits out reportTimeout.
func TestGatherReportsFlushesBacklog(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	trs := make([]*comm.TCP, 2)
	for i := range trs {
		tr, err := comm.NewTCP(comm.TCPConfig{
			Rank: i, Addrs: addrs, NumLPs: 2,
			DialTimeout: 5 * time.Second, DrainTimeout: 5 * time.Second,
			Listener: lns[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}

	// Rank 0 is a kernel nobody runs: LP 0, its spillbox, the transport's sink.
	m := reportModel(2, 2)
	cfg := DefaultConfig(100)
	d := newKernel(m, &cfg, trs[0].Peers(), trs[0], nil)

	// Rank 1's report, written before the fleet starts.
	locals, res := rankResult(m, 2, 1)
	report, err := encodeReport(1, locals, res)
	if err != nil {
		t.Fatal(err)
	}

	// Rank 1 files what arrives and does not look at its sockets yet.
	stopped := make(chan struct{})
	trs[1].SetSink(func(lp int, p comm.Packet) {
		if p.Kind == comm.PktStop {
			close(stopped)
		}
	}, func() {})

	var start sync.WaitGroup
	for _, tr := range trs {
		start.Add(1)
		go func(tr *comm.TCP) {
			defer start.Done()
			if err := tr.Start(); err != nil {
				t.Error(err)
			}
		}(tr)
	}
	start.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The last rounds of rank 0's workers: events, then the stop, each round
	// ending in the flush that writes what the socket will take.
	const frames, size = 256, 64 << 10
	payload := make([]byte, size)
	for i := 0; i < frames; i++ {
		trs[0].Send(1, comm.Packet{Kind: comm.PktEvents, From: 0, Payload: payload}, size)
	}
	trs[0].Send(1, comm.Packet{Kind: comm.PktStop, From: 0}, 0)
	trs[0].Flush(true)

	// Rank 1 from here on: poll until the stop, report, keep the wire moving.
	done := make(chan struct{})
	var peer sync.WaitGroup
	peer.Add(1)
	go func() {
		defer peer.Done()
		reported := false
		for {
			trs[1].Poll()
			select {
			case <-stopped:
				if !reported {
					reported = true
					trs[1].Send(0, comm.Packet{Kind: comm.PktReport, From: 1, Payload: report}, len(report))
				}
			case <-done:
				return
			default:
			}
			trs[1].Flush(true)
			time.Sleep(50 * time.Microsecond)
		}
	}()

	gathered := make(chan error, 1)
	_, res0 := rankResult(m, 2, 0)
	go func() { gathered <- gatherReports(d, m, res0) }()
	select {
	case err := <-gathered:
		if err != nil {
			t.Errorf("gatherReports: %v", err)
		}
	case <-time.After(reportTimeout / 2):
		t.Error("gatherReports left the stop in rank 0's out-buffer: the peer never saw it")
	}
	close(done)
	peer.Wait()

	var closing sync.WaitGroup
	for _, tr := range trs {
		closing.Add(1)
		go func(tr *comm.TCP) { defer closing.Done(); tr.Close() }(tr)
	}
	closing.Wait()
}

// reportModel deals objects tally objects round lps LPs: object i is on LP
// i mod lps, so an LP's objects are not a run of ids.
func reportModel(objects, lps int) *model.Model {
	m := &model.Model{Name: "report", Partition: make([]int, objects)}
	for i := range m.Partition {
		m.Partition[i] = i % lps
		m.Objects = append(m.Objects, &tallyObject{pingObject: pingObject{name: fmt.Sprintf("tally.%d", i)}})
	}
	return m
}

// rankResult builds rank's share of m over ranks as Run does, starting
// nothing, and the Result Run has made on that rank when the report is due:
// every array the size of the model, each hosted object's entry filled in.
func rankResult(m *model.Model, ranks, rank int) ([]*lpRun, *Result) {
	cfg := DefaultConfig(100)
	peers := comm.Peers{NumLPs: m.NumLPs(), Local: comm.BlockRanks(m.NumLPs(), ranks, rank), Rank: rank, NumRanks: ranks}
	d := newKernel(m, &cfg, peers, inProc(m, &cfg), nil)
	res := &Result{
		RunRecord: stats.RunRecord{
			PerLP:     make([]stats.Counters, m.NumLPs()),
			PerObject: make([]stats.PerObject, len(m.Objects)),
		},
		FinalStates: make([]model.State, len(m.Objects)),
	}
	for _, lp := range d.lps {
		for _, o := range lp.objs {
			res.FinalStates[o.id] = m.Objects[o.id].InitialState()
			res.PerObject[o.id] = stats.PerObject{Name: m.Objects[o.id].Name(), FinalStrategy: "aggressive"}
		}
	}
	return d.lps, res
}

// reportPeers is what rank 0 of ranks knows of m's LPs.
func reportPeers(m *model.Model, ranks int) comm.Peers {
	return comm.Peers{NumLPs: m.NumLPs(), Local: comm.BlockRanks(m.NumLPs(), ranks, 0), NumRanks: ranks}
}

// fillReport gives every counter of every LP in locals, every observation
// and every final state of their objects a value of its own.
func fillReport(locals []*lpRun, res *Result) {
	for _, lp := range locals {
		v := reflect.ValueOf(&res.PerLP[lp.id]).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetInt(int64(lp.id)<<32 | int64(i+1))
		}
		for _, o := range lp.objs {
			id := int64(o.id)
			res.FinalStates[o.id] = &tallyState{Seen: id + 1, Sum: -id << 40}
			res.PerObject[o.id] = stats.PerObject{
				Name:               res.PerObject[o.id].Name,
				Rollbacks:          id + 11,
				HitRatio:           1 / float64(id+3),
				Comparisons:        id<<20 + 5,
				FinalStrategy:      cancel.Strategy(id & 1).String(),
				FinalCheckpointInt: int(id + 7),
			}
		}
	}
}

// TestReportRoundTrip: what rank 1 reports is what rank 0 reads — every
// counter of every LP, every observation and the bytes of every final state —
// and rank 0's own entries, and the names its model gives, are left as they
// were.
func TestReportRoundTrip(t *testing.T) {
	m := reportModel(12, 6)
	locals, sent := rankResult(m, 3, 1)
	fillReport(locals, sent)
	b, err := encodeReport(1, locals, sent)
	if err != nil {
		t.Fatal(err)
	}

	_, got := rankResult(m, 3, 0)
	mine := got.PerObject[0]
	if err := applyReport(b, 1, m, reportPeers(m, 3), got); err != nil {
		t.Fatal(err)
	}
	var merged stats.Counters
	for _, lp := range locals {
		if got.PerLP[lp.id] != sent.PerLP[lp.id] {
			t.Errorf("LP %d counters:\n got  %+v\n want %+v", lp.id, got.PerLP[lp.id], sent.PerLP[lp.id])
		}
		merged.Merge(&sent.PerLP[lp.id])
		for _, o := range lp.objs {
			if got.PerObject[o.id] != sent.PerObject[o.id] {
				t.Errorf("object %d: got %+v, want %+v", o.id, got.PerObject[o.id], sent.PerObject[o.id])
			}
			g, w := got.FinalStates[o.id].(codec.DeltaState), sent.FinalStates[o.id].(codec.DeltaState)
			if !bytes.Equal(g.MarshalState(nil), w.MarshalState(nil)) {
				t.Errorf("object %d final state %+v, want %+v", o.id, g, w)
			}
		}
	}
	if got.Stats != merged {
		t.Errorf("merged tally %+v, want %+v", got.Stats, merged)
	}
	if got.PerObject[0] != mine || got.PerLP[0] != (stats.Counters{}) {
		t.Error("rank 1's report wrote over rank 0's own entries")
	}
}

// TestReportRefusesForeignRecords: rank 0 applies a report only if it
// describes exactly what its rank hosts — every LP and object, each once, in
// the order the rank holds them — and is whole: anything else is an error
// that names the rank, never a panic and never a silent write over another
// rank's entries. Rank 1 of three hosts LPs 2 and 3 of six, and objects 2, 8,
// 3 and 9 of twelve.
func TestReportRefusesForeignRecords(t *testing.T) {
	m := reportModel(12, 6)
	locals, res := rankResult(m, 3, 1)
	fillReport(locals, res)
	foreign, _ := rankResult(m, 3, 0) // LPs 0 and 1, hosting objects 0, 6, 1 and 7
	res.FinalStates[6], res.PerObject[6] = &tallyState{}, stats.PerObject{FinalStrategy: "lazy"}
	encode := func(locals []*lpRun, res *Result) []byte {
		b, err := encodeReport(1, locals, res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	valid := encode(locals, res)
	objAt := 3 + 2*(1+countersSize) // where object 2's record starts
	patch := func(at int, p ...byte) []byte {
		b := bytes.Clone(valid)
		copy(b[at:], p)
		return b
	}
	// withObjs is rank 1 with LP 2 hosting objs instead.
	withObjs := func(objs ...*simObject) []*lpRun {
		return []*lpRun{{id: 2, objs: objs}, locals[1]}
	}
	o2, o8, o6 := locals[0].objs[0], locals[0].objs[1], foreign[0].objs[1]
	badState := *res
	badState.FinalStates = append([]model.State(nil), res.FinalStates...)
	badState.FinalStates[2] = &shortState{}
	noCodec := *m
	noCodec.Objects = append([]model.Object(nil), m.Objects...)
	noCodec.Objects[8] = &pingObject{name: "plain"}

	cases := []struct {
		name string
		b    []byte
		from int
		m    *model.Model
		want string
	}{
		{"valid", valid, 1, m, ""},
		{"truncated", valid[:len(valid)-1], 1, m, "truncated"},
		{"empty", nil, 1, m, "truncated"},
		{"trailing", append(bytes.Clone(valid), 0), 1, m, "trailing"},
		{"rank differs from sender", valid, 2, m, "names rank 1"},
		{"rank in a longer form", append([]byte{0x81, 0}, valid[1:]...), 1, m, "malformed uvarint"},
		{"LP of another rank", encode([]*lpRun{{id: 0, objs: locals[0].objs}, locals[1]}, res), 1, m, "LP 0, which the rank does not host"},
		{"LP twice", encode([]*lpRun{locals[0], locals[0]}, res), 1, m, "LP 2 repeated"},
		{"LPs out of order", encode([]*lpRun{locals[1], locals[0]}, res), 1, m, "LP 2 repeated or out of order"},
		{"out-of-range LP", patch(3, 99), 1, m, "out-of-range LP 99"},
		{"object of another rank", encode(withObjs(o2, o6), res), 1, m, "object 6, which belongs to LP 0"},
		{"object twice", encode(withObjs(o2, o2), res), 1, m, "object 2 repeated"},
		{"objects out of order", encode(withObjs(o8, o2), res), 1, m, "object 2 repeated or out of order"},
		{"object missing", encode(withObjs(o2), res), 1, m, "2 LPs and 3 objects reported, 2 and 4 hosted"},
		{"out-of-range object", patch(objAt, 100), 1, m, "out-of-range object 100"},
		{"oversized state length", patch(objAt+1, 0xff, 0xff, 0xff, 0x7f), 1, m, "where 2147483647 are due"},
		{"unknown strategy", patch(objAt+1+4+16+24, 7), 1, m, "unknown final strategy 7"},
		{"state that fails to decode", encode(locals, &badState), 1, m, "object 2 final state decode"},
		{"state without codec", valid, 1, &noCodec, "object 8 state cannot decode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, got := rankResult(m, 3, 0)
			err := applyReport(tc.b, tc.from, tc.m, reportPeers(m, 3), got)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil {
				t.Fatalf("applied; want an error saying %q", tc.want)
			}
			if rank := fmt.Sprintf("core: rank %d report: ", tc.from); !strings.HasPrefix(err.Error(), rank) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q; want one that starts %q and says %q", err, rank, tc.want)
			}
		})
	}
}

// shortState encodes to three bytes, which no tallyState decodes.
type shortState struct{}

func (shortState) Clone() model.State                         { return shortState{} }
func (shortState) MarshalState(b []byte) []byte               { return append(b, 1, 2, 3) }
func (shortState) UnmarshalState([]byte) (model.State, error) { return shortState{}, nil }

// TestReportCountersFixedWidth: the record writes every stats.Counters field
// as eight bytes. A counter of another width or kind, or one that is not
// fixed-size at all, fails here rather than in a fleet's last step.
func TestReportCountersFixedWidth(t *testing.T) {
	if n := binary.Size(stats.Counters{}); n <= 0 || n != countersSize {
		t.Fatalf("binary.Size(stats.Counters{}) = %d; the record gives the counters %d bytes", n, countersSize)
	}
}

// TestReportAllocsPerObject: a report costs rank 1 its record and rank 0 a
// state per object, not an encoder's worth of per-object values on each side.
// Two ranks of a 4,096-object, 8-LP model, the shape of phold-tcp2: encoding
// and applying rank 1's 2,048 objects allocated 890 B per object when the
// report went through encoding/gob (1.2 KB with phold's states), and about
// 130 B as a record.
func TestReportAllocsPerObject(t *testing.T) {
	const bound = 400
	m := reportModel(4096, 8)
	locals, sent := rankResult(m, 2, 1)
	fillReport(locals, sent)
	_, got := rankResult(m, 2, 0)
	peers := reportPeers(m, 2)
	objs := 0
	for _, lp := range locals {
		objs += len(lp.objs)
	}
	round := func() {
		b, err := encodeReport(1, locals, sent)
		if err != nil {
			t.Fatal(err)
		}
		if err := applyReport(b, 1, m, peers, got); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perObj := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*objs)
	t.Logf("%.0f B and %.2f allocations per reported object, encode and apply", perObj,
		float64(after.Mallocs-before.Mallocs)/float64(rounds*objs))
	if perObj > bound {
		t.Errorf("a report allocates %.0f B per object, more than %d", perObj, bound)
	}
}

// FuzzDecodeReport: applying any bytes as rank 1's report returns or fails;
// it never panics. A record that applies is the one encoding of what it
// carries: rank 1 reporting the Result it was read into writes it again, byte
// for byte.
func FuzzDecodeReport(f *testing.F) {
	m := reportModel(12, 6)
	peers := reportPeers(m, 3)
	locals, sent := rankResult(m, 3, 1)
	fillReport(locals, sent)
	valid, err := encodeReport(1, locals, sent)
	if err != nil {
		f.Fatal(err)
	}
	_, zero := rankResult(m, 3, 1)
	blank, err := encodeReport(1, locals, zero)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(blank)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{1, 2, 4})
	// A record that applies writes every entry of rank 1's, which is all
	// that rank 1 reads back: one Result serves every input.
	_, got := rankResult(m, 3, 0)
	f.Fuzz(func(t *testing.T, b []byte) {
		if applyReport(b, 1, m, peers, got) != nil {
			return
		}
		again, err := encodeReport(1, locals, got)
		if err != nil {
			t.Fatalf("an applied record does not encode again: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("an applied record encodes differently:\n  %x\n  %x", b, again)
		}
	})
}

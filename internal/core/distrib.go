package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"time"

	"gowarp/internal/cancel"
	"gowarp/internal/codec"
	"gowarp/internal/comm"
	"gowarp/internal/model"
	"gowarp/internal/stats"
)

// Distributed runs: the kernel spans several OS processes (ranks), each
// hosting a contiguous block of LPs behind a comm.Transport. Events, GVT
// tokens and the final GVT flow through the transport unchanged — the
// Mattern protocol never cared where an LP lives. What needs explicit
// machinery is the end of the run: rank 0's caller expects a Result covering
// the whole model, so after its LPs terminate every other rank appends its
// LPs' counters and its objects' final states (their codec.DeltaState
// encodings) and observations straight into one binary record, a PktReport
// addressed to LP 0, and rank 0 reads that record in place into its Result.
// The record's layout sits beside the frame layout in comm's wire.go. It
// carries no names: rank 0 names each object, and decodes its state into a
// fresh InitialState, from its own copy of the model. It must describe exactly
// the LPs and objects its rank hosts, in the order the rank holds them, so
// each report has one encoding and one that claims anything else is refused.
//
// Each rank is a dispatcher over the LPs it hosts (dispatch.go), at whatever
// width its Config.Workers asks for, and its workers drive the transport: its
// deliveries reach the LPs' spillboxes through the sink, and where it is
// polled (TCP on Unix) the workers read and write the sockets themselves.
//
// The ordering that makes the report safe: the final GVT originates at rank
// 0's LP 0, which stops as it applies it, so by the time any remote rank's
// workers have joined and its report is sent, LP 0 reads no more packets.
// Whatever reaches LP 0 from then on stays in its spillbox, and that is where
// gatherReports looks, polling and flushing the transport itself now that the
// workers are gone. A report travels ahead of its rank's half-close on the
// same stream, so a link that has ended with the rank's report still missing
// will not bring it.
//
// A run that fails ends by a stop from the rank where it failed (abort),
// which reaches a rank running, reporting or draining its links: so a report
// rank 0 refuses fails every rank. A report that never comes fails them too:
// rank 0 sends the others a stop naming the rank whose report is missing.

// reportTimeout bounds how long rank 0 waits for the other ranks' end-of-run
// reports. A missing report means a peer process died after termination was
// already detected; waiting forever would hide that.
const reportTimeout = 30 * time.Second

// The fixed-width parts of a report record: every stats.Counters field is
// eight bytes, and an object's record ends in its rollbacks, hit ratio,
// comparisons, strategy and checkpoint interval.
var countersSize = 8 * reflect.TypeOf(stats.Counters{}).NumField()

const objectTail = 8 + 8 + 8 + 1 + 8

// checkDistributed rejects configurations that require process-shared state
// and therefore cannot span ranks. Every rank runs the same check, so a
// misconfigured fleet fails everywhere with the same message.
func checkDistributed(m *model.Model, cfg *Config) error {
	if cfg.Balance.Dynamic() {
		return fmt.Errorf("core: dynamic load balancing requires the in-process transport (migration capsules and the live routing table cannot cross a process boundary)")
	}
	if cfg.Optimism.Adaptive() {
		return fmt.Errorf("core: adaptive optimism requires the in-process transport (its controller observes only the progress records of the LPs in its own process)")
	}
	if cfg.Audit != nil {
		return fmt.Errorf("core: the on-line auditor requires the in-process transport (its message-conservation ledger is global)")
	}
	for id, obj := range m.Objects {
		if _, ok := obj.InitialState().(codec.DeltaState); !ok {
			return fmt.Errorf("core: object %d (%s): state %T does not implement codec.DeltaState, required to report final states across ranks",
				id, obj.Name(), obj.InitialState())
		}
	}
	return nil
}

// abort ends this rank's part of a run that failed with err. A failure the
// kernel found here, or this rank's transport found, goes to every other rank
// as a stop; one another rank sent is known there already. Then the transport
// closes: where a stop or a missing report is the symptom, a link that failed
// is the cause, and Close returns its error.
func (d *dispatcher) abort(err error) error {
	f, _ := err.(*failure)
	if f != nil && (!f.stop || f.rank == d.tr.Peers().Rank) {
		d.stopRanks(f.rank, f.msg, nil)
	}
	if cerr := d.tr.Close(); cerr != nil && (f == nil || f.stop) {
		return fmt.Errorf("core: transport: %w", cerr)
	}
	return err
}

// stopRanks sends every other rank but those in skip a stop naming rank and
// why, and flushes it out.
func (d *dispatcher) stopRanks(rank int, why string, skip []int) {
	peers := d.tr.Peers()
	for r := 0; r < peers.NumRanks; r++ {
		if r != peers.Rank && !slices.Contains(skip, r) {
			d.tr.Send(comm.BlockRanks(peers.NumLPs, peers.NumRanks, r)[0], comm.StopPacket(rank, why), 0)
		}
	}
	d.tr.Flush(true)
}

// sendReport ships this rank's slice of the results to the coordinator as
// one report record.
func sendReport(tr comm.Transport, rank int, locals []*lpRun, res *Result) error {
	b, err := encodeReport(rank, locals, res)
	if err != nil {
		return &failure{rank: rank, msg: fmt.Sprintf("report: %v", err)}
	}
	tr.Send(0, comm.Packet{Kind: comm.PktReport, From: rank, Payload: b}, len(b))
	return nil
}

// encodeReport writes rank's report record: the counters of every LP in
// locals, then the final state and observations of every object they host,
// LP by LP in lp.objs order, all read from res.
func encodeReport(rank int, locals []*lpRun, res *Result) ([]byte, error) {
	objs := 0
	for _, lp := range locals {
		objs += len(lp.objs)
	}
	// Room for all but the states, which append makes as they come.
	b := make([]byte, 0, 3*binary.MaxVarintLen64+
		len(locals)*(binary.MaxVarintLen64+countersSize)+
		objs*(binary.MaxVarintLen64+4+objectTail))
	b = binary.AppendUvarint(b, uint64(rank))
	b = binary.AppendUvarint(b, uint64(len(locals)))
	b = binary.AppendUvarint(b, uint64(objs))
	for _, lp := range locals {
		b = binary.AppendUvarint(b, uint64(lp.id))
		b = appendCounters(b, &res.PerLP[lp.id])
	}
	for _, lp := range locals {
		for _, o := range lp.objs {
			ds, ok := res.FinalStates[o.id].(codec.DeltaState)
			if !ok {
				// Guarded up front by checkDistributed; a state type that
				// changes shape mid-run would be a model bug.
				return nil, fmt.Errorf("object %d final state %T lost its codec.DeltaState encoding", o.id, res.FinalStates[o.id])
			}
			po := &res.PerObject[o.id]
			strategy, err := strategyOf(po.FinalStrategy)
			if err != nil {
				return nil, fmt.Errorf("object %d: %w", o.id, err)
			}
			b = binary.AppendUvarint(b, uint64(o.id))
			n := len(b)
			b = ds.MarshalState(append(b, 0, 0, 0, 0))
			binary.LittleEndian.PutUint32(b[n:], uint32(len(b)-n-4))
			b = binary.LittleEndian.AppendUint64(b, uint64(po.Rollbacks))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(po.HitRatio))
			b = binary.LittleEndian.AppendUint64(b, uint64(po.Comparisons))
			b = append(b, byte(strategy))
			b = binary.LittleEndian.AppendUint64(b, uint64(po.FinalCheckpointInt))
		}
	}
	return b, nil
}

// appendCounters appends every field of c in declaration order, eight bytes
// each: all are int64 or time.Duration, as Merge assumes.
func appendCounters(b []byte, c *stats.Counters) []byte {
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Field(i).Int()))
	}
	return b
}

// readCounters is appendCounters' inverse over b, countersSize bytes.
func readCounters(c *stats.Counters, b []byte) {
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
}

// strategyOf is the cancellation strategy a PerObject.FinalStrategy names.
func strategyOf(name string) (cancel.Strategy, error) {
	for s := cancel.Aggressive; s <= cancel.Lazy; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown final strategy %q", name)
}

// recordReader takes a report record apart. The first short or malformed
// read sticks in err, and every read after it returns nothing.
type recordReader struct {
	b   []byte
	err error
}

// uvarint reads a uvarint in its shortest form: a record has one encoding.
func (r *recordReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.err = errors.New("truncated or malformed uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// next takes the next n bytes.
func (r *recordReader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b) < n {
		r.err = fmt.Errorf("truncated: %d byte(s) left where %d are due", len(r.b), uint32(n))
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// applyReport reads rank from's report record b in place into res: each
// hosted LP's counters into PerLP and Stats, each hosted object's final state
// and observations into FinalStates and PerObject. A state is decoded into
// its object's InitialState from m, which names the object too. The record
// must describe exactly what rank from hosts, in encodeReport's order; a
// record that does not, or that is short, malformed or followed by more
// bytes, fails rank from.
func applyReport(b []byte, from int, m *model.Model, peers comm.Peers, res *Result) error {
	if err := readReport(b, from, m, peers, res); err != nil {
		return &failure{rank: from, msg: fmt.Sprintf("report: %v", err)}
	}
	return nil
}

func readReport(b []byte, from int, m *model.Model, peers comm.Peers, res *Result) error {
	onRank := func(lp int) bool { return comm.RankOf(lp, peers.NumLPs, peers.NumRanks) == from }
	wantLPs, wantObjs := uint64(len(comm.BlockRanks(peers.NumLPs, peers.NumRanks, from))), uint64(0)
	for _, lp := range m.Partition {
		if onRank(lp) {
			wantObjs++
		}
	}

	r := recordReader{b: b}
	rank, lps, objs := r.uvarint(), r.uvarint(), r.uvarint()
	switch {
	case r.err != nil:
		return r.err
	case rank != uint64(from):
		return fmt.Errorf("the record names rank %d", rank)
	case lps != wantLPs || objs != wantObjs:
		return fmt.Errorf("%d LPs and %d objects reported, %d and %d hosted", lps, objs, wantLPs, wantObjs)
	}

	prev := -1
	for i := uint64(0); i < lps; i++ {
		id, c := r.uvarint(), r.next(countersSize)
		switch {
		case r.err != nil:
			return r.err
		case id >= uint64(peers.NumLPs):
			return fmt.Errorf("counters for out-of-range LP %d", id)
		case !onRank(int(id)):
			return fmt.Errorf("counters for LP %d, which the rank does not host", id)
		case int(id) <= prev:
			return fmt.Errorf("LP %d repeated or out of order", id)
		}
		prev = int(id)
		readCounters(&res.PerLP[id], c)
		res.Stats.Merge(&res.PerLP[id])
	}

	prevLP, prevObj := -1, -1
	for i := uint64(0); i < objs; i++ {
		id, n := r.uvarint(), 0
		if p := r.next(4); p != nil {
			n = int(binary.LittleEndian.Uint32(p))
		}
		state, tail := r.next(n), r.next(objectTail)
		if r.err != nil {
			return r.err
		}
		if id >= uint64(len(m.Objects)) {
			return fmt.Errorf("out-of-range object %d", id)
		}
		o := int(id)
		lp := m.Partition[o]
		switch {
		case !onRank(lp):
			return fmt.Errorf("object %d, which belongs to LP %d on another rank", o, lp)
		case lp < prevLP || lp == prevLP && o <= prevObj:
			return fmt.Errorf("object %d repeated or out of order", o)
		}
		prevLP, prevObj = lp, o
		strategy := cancel.Strategy(tail[24])
		interval := int64(binary.LittleEndian.Uint64(tail[25:]))
		switch {
		case strategy > cancel.Lazy:
			return fmt.Errorf("object %d: unknown final strategy %d", o, strategy)
		case int64(int(interval)) != interval:
			return fmt.Errorf("object %d: checkpoint interval %d out of range", o, interval)
		}
		proto, ok := m.Objects[o].InitialState().(codec.DeltaState)
		if !ok {
			return fmt.Errorf("object %d state cannot decode a remote report (no codec.DeltaState)", o)
		}
		st, err := proto.UnmarshalState(state)
		if err != nil {
			return fmt.Errorf("object %d final state decode: %w", o, err)
		}
		res.FinalStates[o] = st
		res.PerObject[o] = stats.PerObject{
			Name:               m.Objects[o].Name(),
			Rollbacks:          int64(binary.LittleEndian.Uint64(tail)),
			HitRatio:           math.Float64frombits(binary.LittleEndian.Uint64(tail[8:])),
			Comparisons:        int64(binary.LittleEndian.Uint64(tail[16:])),
			FinalStrategy:      strategy.String(),
			FinalCheckpointInt: int(interval),
		}
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%d trailing byte(s)", len(r.b))
	}
	return nil
}

// gatherReports folds every other rank's report into res on rank 0. Reports
// may already sit in LP 0's spillbox or, defensively, its stash; the rest are
// awaited on the transport with a bounded timeout. A stop ends the wait at
// once with the failure it names: a rank failed, or a link did. So does a
// rank whose inbound link has ended (stats.LinkStats.Ended) without its
// report, and so does the timeout; then every rank still listening — all but
// those whose link has ended, or, at the timeout, those that never reported —
// gets a stop naming the first rank whose report is missing.
func gatherReports(d *dispatcher, m *model.Model, res *Result) error {
	peers := d.tr.Peers()
	pending := make(map[int]bool, peers.NumRanks-1)
	for r := 1; r < peers.NumRanks; r++ {
		pending[r] = true
	}

	apply := func(p comm.Packet) error {
		if p.Kind != comm.PktReport {
			return nil // post-termination stragglers (flushed events, GVT echoes)
		}
		if !pending[p.From] {
			return &failure{rank: p.From, msg: "a duplicate or unexpected end-of-run report"}
		}
		delete(pending, p.From)
		return applyReport(p.Payload, p.From, m, peers, res)
	}

	lp0 := d.byID[0]
	for _, p := range append(lp0.stash, lp0.spill.take()...) {
		if err := apply(p); err != nil {
			return err
		}
	}

	// What is still to come reaches the spillbox through the sink. The
	// workers have stopped, so poll here — and flush: a worker's last flush
	// wrote what the sockets took, and what they refused may include the
	// final GVT a peer is waiting for before it reports. Between looks
	// rank 0 waits as an idle worker does: for the doorbell, armed before the
	// look, or for the idle tick, which is what notices a socket with room
	// again for the rest of rank 0's out-buffer.
	links, _ := d.tr.(linkTally)
	deadline := time.NewTimer(reportTimeout)
	defer deadline.Stop()
	for len(pending) > 0 {
		d.tr.Flush(true)
		d.tr.Arm()
		d.tr.Poll()
		var seen []stats.LinkStats
		if links != nil {
			seen = links.Links() // before the take: a link ends after all it delivered
		}
		if f := d.failed.Load(); f != nil {
			return f
		}
		arrived := lp0.spill.take()
		for _, p := range arrived {
			if err := apply(p); err != nil {
				return err
			}
		}
		var gone []int
		for _, l := range seen {
			if l.Ended && pending[l.Peer] {
				gone = append(gone, l.Peer)
			}
		}
		if len(gone) > 0 {
			d.stopRanks(gone[0], "closed its link before it reported", gone)
			return fmt.Errorf("core: rank 0: rank %d closed its link before it reported", gone[0])
		}
		if len(arrived) > 0 {
			continue
		}
		select {
		case <-d.workers[0].wake: // the ring; the workers have stopped
		case <-time.After(d.idleTick):
		case <-deadline.C:
			missing := sortedKeys(pending)
			d.stopRanks(missing[0], fmt.Sprintf("sent no end-of-run report within %v", reportTimeout), missing)
			return fmt.Errorf("core: timed out after %v waiting for end-of-run reports from ranks %v", reportTimeout, missing)
		}
	}
	return nil
}

func sortedKeys(set map[int]bool) []int {
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
